#!/usr/bin/env bash
# Builds the benchmark from source (offline, release) and runs it with the
# arguments given. `--trace 1` selects the binary that carries the
# counting allocator; everything else runs on the system allocator.
#
#   bash benchmark/run.sh --workload sched_batch --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh suite --seeds 10 --out A.json
#   bash benchmark/run.sh compare A.json B.json
#   bash benchmark/run.sh describe
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin=vnfrel-benchmark
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=vnfrel-benchmark-traced
    fi
    prev="$arg"
done

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started from, which is also where the binary is looked up below.
target="${CARGO_TARGET_DIR:-$here/target}"
# Both binaries every time: whichever run comes first in a checkout pays
# for the whole build, and no later run has to fit one into its time limit.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --bins >&2
exec "$target/release/$bin" "$@"
