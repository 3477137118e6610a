#!/bin/sh
# Paper outputs as checked-in goldens. A golden is the expected stdout of
# one deterministic bench (bench/golden/<bench>.txt at the default scale,
# bench/golden/scale500/<bench>.txt at RWDT_SCALE=500). Each bench runs in
# a fresh scratch directory, because the table benches append
# BENCH_study_metrics.jsonl to their working directory. Logs go to stderr
# and are not compared; RWDT_THREADS may be set, since every bench prints
# the same bytes at any thread count.
#
#   tools/goldens.sh check BENCH_BINARY GOLDEN_FILE [SCALE]
#       Runs one bench (at RWDT_SCALE=SCALE when given, at its default
#       scale otherwise) and diffs its stdout against GOLDEN_FILE. ctest
#       runs this for every default-scale golden.
#   tools/goldens.sh check-scale500 BUILD_DIR
#       Checks every RWDT_SCALE=500 golden against BUILD_DIR's benches.
#   tools/goldens.sh regen BUILD_DIR
#       Rewrites every golden from BUILD_DIR's benches. A change that moves
#       a golden says in CHANGES.md which table moved and why.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
GOLDEN_DIR="$ROOT/bench/golden"

DEFAULT_BENCHES="bench_table1_treewidth bench_table2_corpus
bench_table3_features bench_table4_cq_fragments bench_table5_c2rpq_fragments
bench_table6_htw bench_table7_shapes bench_table8_path_types
bench_figure3_query_size bench_dtd_study bench_xml_quality bench_xpath_study
bench_rdf_structure bench_inference bench_determinization
bench_well_designed bench_path_semantics bench_appendix_a"
SCALE500_BENCHES="bench_table2_corpus bench_table3_features
bench_table4_cq_fragments bench_table5_c2rpq_fragments bench_table6_htw
bench_table7_shapes bench_table8_path_types bench_figure3_query_size"

# run_bench BINARY SCALE: the bench's stdout, from a scratch directory.
run_bench() {
  work=$(mktemp -d)
  status=0
  if [ -n "$2" ]; then
    (cd "$work" && RWDT_SCALE="$2" "$1") || status=$?
  else
    (cd "$work" && env -u RWDT_SCALE "$1") || status=$?
  fi
  rm -rf "$work"
  return "$status"
}

# check BINARY GOLDEN SCALE
check() {
  actual=$(mktemp)
  status=0
  if ! run_bench "$1" "$3" > "$actual"; then
    echo "FAIL: $1 exited non-zero" >&2
    status=1
  elif ! diff -u "$2" "$actual"; then
    echo "FAIL: stdout of $1 differs from $2" >&2
    status=1
  fi
  rm -f "$actual"
  return "$status"
}

abs_dir() { (cd "$1" && pwd); }

usage() {
  echo "usage: $0 $1" >&2
  exit 2
}

case "${1:-}" in
  check)
    [ $# -ge 3 ] || usage "check BINARY GOLDEN [SCALE]"
    check "$2" "$3" "${4:-}"
    ;;
  check-scale500)
    [ $# -eq 2 ] || usage "check-scale500 BUILD_DIR"
    bench_dir="$(abs_dir "$2")/bench"
    failed=0
    for b in $SCALE500_BENCHES; do
      if check "$bench_dir/$b" "$GOLDEN_DIR/scale500/$b.txt" 500; then
        echo "ok: $b at RWDT_SCALE=500"
      else
        failed=1
      fi
    done
    exit "$failed"
    ;;
  regen)
    [ $# -eq 2 ] || usage "regen BUILD_DIR"
    bench_dir="$(abs_dir "$2")/bench"
    mkdir -p "$GOLDEN_DIR/scale500"
    for b in $DEFAULT_BENCHES; do
      run_bench "$bench_dir/$b" "" > "$GOLDEN_DIR/$b.txt"
      echo "wrote bench/golden/$b.txt"
    done
    for b in $SCALE500_BENCHES; do
      run_bench "$bench_dir/$b" 500 > "$GOLDEN_DIR/scale500/$b.txt"
      echo "wrote bench/golden/scale500/$b.txt"
    done
    ;;
  *)
    usage "check|check-scale500|regen ..."
    ;;
esac
