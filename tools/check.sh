#!/usr/bin/env sh
# Full verification sweep: configure -> build -> ctest under both the
# Release and the Sanitize (ASan + UBSan) configurations. The sanitize
# pass runs the whole suite — including the thread-pool and
# SelectionEngine tests, plus the streaming-ingestion suites
# (service_ingest_wal_test's crash-recovery property sweeps and
# service_ingest_delta_test's delta-vs-rebuild oracle) — so data
# races' memory fallout and UB in the concurrent paths fail loudly.
# It runs ctest twice: once with COMPARESETS_KERNEL=scalar and once
# with =auto (the best SIMD target the CPU supports), so the
# kernel-dispatch bit-identity contract is re-proven under both
# targets on every sweep.
#
#   tools/check.sh            # all configurations + both integration legs
#   tools/check.sh release    # just one
#   tools/check.sh sanitize
#   tools/check.sh tsan       # ThreadSanitizer, concurrency-heavy suites
#   tools/check.sh integration            # RPC serving stack, Release
#   tools/check.sh integration-sanitize   # same under ASan+UBSan
#   tools/check.sh tables     # paper tables regenerate byte-identical
#
# The tsan phase builds with -fsanitize=thread and runs only the suites
# that exercise the work-stealing scheduler, the admission pipeline, the
# SLO controller, the router, and the RPC transport — where router
# scatter, shard-server handler threads and the shard engines' shared
# pool meet. A data race in the deque hand-off, the lever flips or the
# scatter/gather fails loudly there; the full suite under TSan would
# mostly re-run single-threaded solver math at 10x slowdown for no
# signal.
#
# The integration phase builds shard_server + the CLI, spawns a real
# 4-shard fleet of shard_server processes on Unix sockets, proves
# `serve --transport rpc` byte-identical to `--transport local` against
# that externally-launched fleet, then runs the `integration`-labeled
# ctests (which manage their own servers). The fleet is torn down by an
# EXIT trap, so a failing leg never leaks processes or socket files.
# The regular ctest legs run with -LE integration.
#
# The tables phase builds the Table 3-6 paper-reproduction benches
# (Release), runs each with its default arguments into a scratch
# directory, and cmp's every CSV against the committed copy in
# results/. A change to the production solve path that moves any
# published figure fails here; regenerate the tables (and the
# EXPERIMENTS.md figures they feed) in the same change. Each bench's
# wall time is printed after it runs.
#
# JOBS=N overrides the build/test parallelism (default: nproc).
# Each phase failure names the configuration and phase that failed and
# exits with a distinct code: 2 configure, 3 build, 4 tests, 64 usage.
set -u

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

run_config() {
  name="$1"; dir="$2"; kernels="$3"; shift 3
  echo "== [$name] configure"
  if ! cmake -B "$dir" -S . "$@"; then
    echo "== check.sh: [$name] configure FAILED" >&2
    exit 2
  fi
  echo "== [$name] build"
  if ! cmake --build "$dir" -j "$JOBS"; then
    echo "== check.sh: [$name] build FAILED" >&2
    exit 3
  fi
  for kernel in $kernels; do
    echo "== [$name] ctest (COMPARESETS_KERNEL=$kernel)"
    if ! COMPARESETS_KERNEL="$kernel" \
        ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
            -LE integration; then
      echo "== check.sh: [$name] tests FAILED (COMPARESETS_KERNEL=$kernel)" >&2
      exit 4
    fi
  done
}

run_tsan() {
  name="$1"; dir="$2"; shift 2
  echo "== [$name] configure"
  if ! cmake -B "$dir" -S . "$@"; then
    echo "== check.sh: [$name] configure FAILED" >&2
    exit 2
  fi
  echo "== [$name] build"
  if ! cmake --build "$dir" -j "$JOBS"; then
    echo "== check.sh: [$name] build FAILED" >&2
    exit 3
  fi
  echo "== [$name] ctest (concurrency suites)"
  if ! ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
      -R 'util_thread_pool_test|core_parallel_determinism_test|service_engine_test|service_intra_parallel_test|service_router_test|service_router_determinism_test|service_slo_test|net_transport_oracle_test'; then
    echo "== check.sh: [$name] tests FAILED" >&2
    exit 4
  fi
}

# The spawned shard fleet's state, shared with the EXIT trap. POSIX sh
# has no arrays: PIDs live in one space-separated string.
FLEET_PIDS=""
FLEET_DIR=""

teardown_fleet() {
  for pid in $FLEET_PIDS; do
    kill "$pid" 2>/dev/null || true
  done
  for pid in $FLEET_PIDS; do
    wait "$pid" 2>/dev/null || true
  done
  FLEET_PIDS=""
  if [ -n "$FLEET_DIR" ]; then
    rm -rf "$FLEET_DIR"
    FLEET_DIR=""
  fi
}

run_integration() {
  name="$1"; dir="$2"; shift 2
  echo "== [$name] configure"
  if ! cmake -B "$dir" -S . "$@"; then
    echo "== check.sh: [$name] configure FAILED" >&2
    exit 2
  fi
  echo "== [$name] build"
  if ! cmake --build "$dir" -j "$JOBS"; then
    echo "== check.sh: [$name] build FAILED" >&2
    exit 3
  fi

  FLEET_DIR="${TMPDIR:-/tmp}/comparesets-integration-$$"
  mkdir -p "$FLEET_DIR"
  trap teardown_fleet EXIT INT TERM

  shards=4
  products=60
  echo "== [$name] spawning $shards shard_server processes"
  addrs=""
  i=0
  while [ "$i" -lt "$shards" ]; do
    addr="unix:$FLEET_DIR/shard$i.sock"
    "$dir/tools/shard_server" --listen="$addr" --shards="$shards" \
        --shard_index="$i" --products="$products" --threads=1 \
        > "$FLEET_DIR/shard$i.log" 2>&1 &
    FLEET_PIDS="$FLEET_PIDS $!"
    if [ -z "$addrs" ]; then addrs="$addr"; else addrs="$addrs,$addr"; fi
    i=$((i + 1))
  done

  # Byte-identity against the EXTERNAL fleet: serve the same queries
  # over both transports and diff everything but the timing token.
  # (`--connect` makes the CLI use the spawned servers instead of
  # forking its own; it also waits for their readiness probes.)
  printf '%s\n' \
      "cellphone-P00000" \
      "cellphone-P00010 CompaReSetS 2" \
      "cellphone-P00025 CompaReSetSGreedy" \
      "cellphone-P00000" \
      > "$FLEET_DIR/queries.txt"
  echo "== [$name] transport oracle: serve --transport local vs rpc"
  if ! "$dir/tools/comparesets" serve --products="$products" --threads=1 \
      --shards="$shards" --queries="$FLEET_DIR/queries.txt" \
      --transport=local > "$FLEET_DIR/local.out"; then
    echo "== check.sh: [$name] local-transport serve FAILED" >&2
    exit 4
  fi
  if ! "$dir/tools/comparesets" serve --products="$products" --threads=1 \
      --shards="$shards" --queries="$FLEET_DIR/queries.txt" \
      --transport=rpc --connect="$addrs" --ready_timeout=120 \
      > "$FLEET_DIR/rpc.out" 2> "$FLEET_DIR/rpc.err"; then
    echo "== check.sh: [$name] rpc-transport serve FAILED" >&2
    cat "$FLEET_DIR/rpc.err" >&2
    exit 4
  fi
  sed 's/solve_ms=[0-9.]*//' "$FLEET_DIR/local.out" > "$FLEET_DIR/local.norm"
  sed 's/solve_ms=[0-9.]*//' "$FLEET_DIR/rpc.out" > "$FLEET_DIR/rpc.norm"
  if ! cmp -s "$FLEET_DIR/local.norm" "$FLEET_DIR/rpc.norm"; then
    echo "== check.sh: [$name] TRANSPORT ORACLE FAILED (rpc != local)" >&2
    diff "$FLEET_DIR/local.norm" "$FLEET_DIR/rpc.norm" >&2 || true
    exit 4
  fi
  echo "== [$name] transport oracle: byte-identical"

  echo "== [$name] ctest -L integration"
  if ! ctest --test-dir "$dir" --output-on-failure -L integration; then
    echo "== check.sh: [$name] integration tests FAILED" >&2
    exit 4
  fi

  teardown_fleet
  trap - EXIT INT TERM
}

TABLE_BENCHES="table3_alignment table4_opinion_definitions
table5_targethks_ratio table6_core_list"

run_tables() {
  name="$1"; dir="$2"; shift 2
  echo "== [$name] configure"
  if ! cmake -B "$dir" -S . "$@"; then
    echo "== check.sh: [$name] configure FAILED" >&2
    exit 2
  fi
  echo "== [$name] build"
  if ! cmake --build "$dir" -j "$JOBS" --target $TABLE_BENCHES; then
    echo "== check.sh: [$name] build FAILED" >&2
    exit 3
  fi
  out="${TMPDIR:-/tmp}/comparesets-tables-$$"
  rm -rf "$out"
  mkdir -p "$out"
  stale=""
  for bench in $TABLE_BENCHES; do
    echo "== [$name] $bench (default arguments)"
    started=$(date +%s)
    if ! "$dir/bench/$bench" --outdir "$out" > "$out/$bench.log" 2>&1; then
      cat "$out/$bench.log" >&2
      rm -rf "$out"
      echo "== check.sh: [$name] $bench FAILED" >&2
      exit 4
    fi
    echo "== [$name] $bench took $(( $(date +%s) - started )) s"
    if ! cmp -s "$out/$bench.csv" "results/$bench.csv"; then
      diff "results/$bench.csv" "$out/$bench.csv" >&2 || true
      stale="$stale $bench.csv"
    fi
  done
  rm -rf "$out"
  if [ -n "$stale" ]; then
    echo "== check.sh: [$name] STALE TABLES (results/ differs):$stale" >&2
    exit 4
  fi
  echo "== [$name] every table regenerates byte-identical"
}

want="${1:-all}"
case "$want" in
  all|release|sanitize|tsan|integration|integration-sanitize|tables) ;;
  *)
    echo "usage: tools/check.sh" \
        "[all|release|sanitize|tsan|integration|integration-sanitize|tables]" >&2
    exit 64
    ;;
esac

if [ "$want" = "all" ] || [ "$want" = "release" ]; then
  run_config release build auto -DCMAKE_BUILD_TYPE=Release
fi
if [ "$want" = "all" ] || [ "$want" = "sanitize" ]; then
  run_config sanitize build-sanitize "scalar auto" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCOMPARESETS_SANITIZE=ON
fi
if [ "$want" = "all" ] || [ "$want" = "tsan" ]; then
  run_tsan tsan build-tsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCOMPARESETS_TSAN=ON
fi
if [ "$want" = "all" ] || [ "$want" = "integration" ]; then
  run_integration integration build -DCMAKE_BUILD_TYPE=Release
fi
if [ "$want" = "all" ] || [ "$want" = "integration-sanitize" ]; then
  run_integration integration-sanitize build-sanitize \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCOMPARESETS_SANITIZE=ON
fi
if [ "$want" = "all" ] || [ "$want" = "tables" ]; then
  run_tables tables build -DCMAKE_BUILD_TYPE=Release
fi
echo "== check.sh: all requested configurations green"
