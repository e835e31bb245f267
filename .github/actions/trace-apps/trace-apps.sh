#!/usr/bin/env bash
# Trace every bundled app at its CI size into the directory $1 (stem =
# app name, seed 1, quiet machine), then print "apps=<names>" on stdout
# for $GITHUB_OUTPUT.  repro-trace's own output goes to stderr.
set -euo pipefail
out=$1
mkdir -p "$out"
apps=()
while read -r app param; do
  nprocs=4
  [ "$app" = butterfly_allreduce ] && nprocs=8
  repro-trace --app "$app" --nprocs "$nprocs" --machine quiet \
    --out "$out" --stem "$app" --param "$param" --seed 1 >&2
  apps+=("$app")
done <<'APPS'
token_ring traversals=2
stencil1d iterations=3
stencil2d iterations=2
master_worker tasks=9
allreduce_iter iterations=4
fft_transpose stages=2
butterfly_allreduce iterations=2
pipeline items=5
random_sparse iterations=2
APPS
echo "apps=${apps[*]}"
