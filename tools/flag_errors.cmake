# The exit-2 contract of the declared flag tables (src/common/flags.h),
# registered as the tier-1 `flag_errors` ctest. Every tool and harness must
# refuse a mistyped flag, an unparsable value or a flag it does not read
# with exit code exactly 2 and a message naming the flag, before doing any
# work. `--help` prints the table and exits 0, and the flag tables in
# README.md must be that output verbatim, so the documented defaults
# cannot drift from the code.
#
# Standalone: cmake -DCLI=build/tools/udm_cli -DSERVE=build/tools/udm_serve
#                   [-DBENCH_DIR=build/bench] -DREADME=README.md
#                   -DWORK_DIR=/tmp/flag_errors -P tools/flag_errors.cmake
# Without BENCH_DIR the harness and serve_loadgen cases are skipped.
foreach(var CLI SERVE README WORK_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "usage: cmake -DCLI=<udm_cli> -DSERVE=<udm_serve> "
                        "[-DBENCH_DIR=<build/bench>] -DREADME=<README.md> "
                        "-DWORK_DIR=<dir> -P flag_errors.cmake")
  endif()
  get_filename_component(${var} "${${var}}" ABSOLUTE)
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

include(${CMAKE_CURRENT_LIST_DIR}/expect_exit.cmake)

# Asserts README.md quotes `<program> <args> --help` verbatim.
function(expect_readme_quotes program)
  execute_process(COMMAND "${program}" ${ARGN} --help
                  OUTPUT_VARIABLE usage RESULT_VARIABLE rc)
  file(READ "${README}" readme)
  string(FIND "${readme}" "${usage}" at)
  get_filename_component(name "${program}" NAME)
  string(REPLACE ";" " " command "${name} ${ARGN} --help")
  if(NOT rc EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR "README.md does not quote the output of ${command} "
                        "(exit ${rc}); paste it in again:\n${usage}")
  endif()
  message(STATUS "ok: README.md quotes ${command}")
endfunction()

# A typo in each udm_cli command.
expect(2 --seeed ${CLI} generate --dataset adult --n 50 --out g.csv
       --seeed 3)
expect(2 --sed ${CLI} perturb --in g.csv --out p.csv --sed 5)
expect(2 --cluster ${CLI} summarize --in g.csv --out s.txt --cluster 40)
expect(2 --pont ${CLI} density --summary s.txt --pont 0,0)
expect(2 --thread ${CLI} experiment --dataset adult --thread 2)
expect(2 --polcy ${CLI} stream --in g.csv --polcy quarantine)
expect(2 --checkpoint-di ${CLI} recover --checkpoint-di ck)
expect(2 --shard ${CLI} merge --checkpoint-dir ck --out m.mc --shard 2)
expect(2 --deadlne-ms ${CLI} classify --dataset adult --n 300
       --deadlne-ms 0.05)
expect(2 --inn ${CLI} stats --inn r.json)
expect(2 --interval ${CLI} top --socket s.sock --interval 10)

# Unparsable values, missing values and required flags.
expect(2 --n ${CLI} generate --dataset adult --n abc --out g.csv)
expect(2 --f ${CLI} perturb --in g.csv --out p.csv --f nan)
expect(2 --out ${CLI} generate --dataset adult --n 50)
expect(2 --out ${CLI} generate --dataset adult --out)
expect(2 --policy ${CLI} stream --in g.csv --policy lenient)
expect(2 --batch ${CLI} stream --in g.csv --shards 2 --batch 0)
if(EXISTS "${WORK_DIR}/g.csv")
  message(FATAL_ERROR "a rejected generate wrote g.csv")
endif()

if(BENCH_DIR)
  set(LOADGEN "${BENCH_DIR}/serve_loadgen")
  # The harnesses read flags through the same tables; --threads,
  # --eval-budget and --deadline-ms exist only where a harness reads them.
  expect(2 --thredas ${BENCH_DIR}/fig10_testing_time_vs_dim --thredas 2)
  expect(2 --smok ${BENCH_DIR}/index_speedup --smok)
  expect(2 --threads ${BENCH_DIR}/fig11_training_rate_vs_n --threads 2)
  expect(2 --threads ${BENCH_DIR}/ablation_subspace --threads 2)
  expect(2 --threads ${BENCH_DIR}/deadline_ladder --threads 2)
  expect(2 --threads ${BENCH_DIR}/index_speedup --smoke --threads 2)
  expect(2 --eval-budget ${BENCH_DIR}/fig04_accuracy_vs_error_adult
         --eval-budget 10)
  expect(2 --deadline-ms ${BENCH_DIR}/fig09_testing_time_vs_mc
         --deadline-ms 5)
  expect(2 --json-out ${BENCH_DIR}/index_speedup --smoke --json-out=j.json)

  expect(2 --bogus ${LOADGEN} --bogus 1)
  expect(2 --mode ${LOADGEN} --mode evl --server-bin ${SERVE})
  expect(2 --requests ${LOADGEN} --requests -1 --server-bin ${SERVE})
  expect(0 --scrape-interval-ms ${LOADGEN} --help)
  expect(0 --threads ${BENCH_DIR}/fig08_training_time_vs_mc --help)
endif()

expect(2 --eval-threads ${SERVE} --smoke --eval-threads 4)
expect(2 --workers ${SERVE} --smoke --workers abc)
expect(2 "got '1'" ${SERVE} --smoke 1)

# --help prints the declared table and exits 0.
expect(0 --manifest ${SERVE} --help)
expect(0 --deadline-ms ${CLI} classify --help)
expect(0 classify ${CLI} --help)
expect(2 "'genrate'" ${CLI} genrate --n 5)

expect_readme_quotes(${SERVE})
expect_readme_quotes(${CLI} classify)
expect_readme_quotes(${CLI} stream)
