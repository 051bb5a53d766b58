#!/usr/bin/env bash
# Regenerate the fixed decode checkpoint: `ctxseq train` at the default config
# (800 steps, batch 8, lr 1e-3) on the seed-0 corpus, with one BLAS thread.
# Run from the repository root:
#
#   bash perfbench/checkpoint/regenerate.sh [OUT_DIR]
#
# Then copy params.bin, config.ini, vocab.txt and loss_log.tsv from
# OUT_DIR/ckpt into perfbench/checkpoint/ and put the printed digests into
# CHECKPOINT_SHA256 in perfbench/workloads.py.
set -euo pipefail
out="${1:-.perfbench-work/regen}"
export PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
python3 -m ctxseq generate --out "$out/corpus"
python3 -m ctxseq train --data "$out/corpus/train.jsonl" --out "$out/ckpt"
sha256sum "$out/ckpt/params.bin" "$out/ckpt/config.ini" "$out/ckpt/vocab.txt"
