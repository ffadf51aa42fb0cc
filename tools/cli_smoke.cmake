# End-to-end smoke run of the udm_cli surface, registered as the tier-1
# `cli_smoke` ctest. Drives the pipeline the CLI documents and asserts every
# exit code:
#   generate -> perturb -> summarize -> density;
#   stream with quarantine, injected faults and checkpoints -> recover;
#   stream --shards 2 --clusters 30 --out a.mc -> merge into b.mc, which must
#   be byte-identical to a.mc (merge defaults to the shards' own budget);
#   merge over shards summarized with different budgets must be rejected;
#   classify under a 0.05 ms per-query deadline still answers every query.
#
# Standalone: cmake -DCLI=build/tools/udm_cli -DWORK_DIR=/tmp/cli_smoke
#                   -P tools/cli_smoke.cmake
if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<udm_cli> -DWORK_DIR=<dir> -P "
                      "cli_smoke.cmake")
endif()

get_filename_component(CLI "${CLI}" ABSOLUTE)
get_filename_component(WORK_DIR "${WORK_DIR}" ABSOLUTE)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs `udm_cli <args>` in WORK_DIR and fails unless it exits with
# `expected_rc`.
function(run_cli expected_rc)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(REPLACE ";" " " command "${ARGN}")
  if(NOT rc STREQUAL "${expected_rc}")
    message(FATAL_ERROR "udm_cli ${command}\n  exit ${rc}, expected "
                        "${expected_rc}\n${out}${err}")
  endif()
  message(STATUS "ok (exit ${rc}): udm_cli ${command}")
endfunction()

run_cli(0 generate --dataset adult --n 2000 --seed 3 --out data.csv)
run_cli(0 perturb --in data.csv --f 1.0 --seed 5 --out noisy.csv
          --errors-out psi.csv)
run_cli(0 summarize --in noisy.csv --errors psi.csv --clusters 40
          --out summary.txt)
run_cli(0 density --summary summary.txt --point 0,0,0,0,0,0)

run_cli(0 stream --in noisy.csv --errors psi.csv --policy quarantine
          --fault-rate 0.05 --checkpoint-dir ck --checkpoint-every 500)
run_cli(0 recover --checkpoint-dir ck --out recovered.txt)

run_cli(0 stream --in noisy.csv --errors psi.csv --shards 2 --clusters 30
          --checkpoint-dir sharded --out a.mc)
run_cli(0 merge --checkpoint-dir sharded --out b.mc)
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORK_DIR}/a.mc" "${WORK_DIR}/b.mc"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "merge of the shard checkpoints differs from the "
                      "in-process merge of stream --shards 2 (a.mc vs b.mc)")
endif()
message(STATUS "ok: a.mc and b.mc are byte-identical")
# An explicit --clusters still overrides the shards' budget.
run_cli(0 merge --checkpoint-dir sharded --clusters 20 --out c.mc)

# Shards summarized under different budgets cannot be merged silently.
run_cli(0 stream --in noisy.csv --errors psi.csv --shards 2 --clusters 20
          --checkpoint-dir other)
file(REMOVE_RECURSE "${WORK_DIR}/sharded/shard-1")
file(COPY "${WORK_DIR}/other/shard-1" DESTINATION "${WORK_DIR}/sharded")
run_cli(2 merge --checkpoint-dir sharded --out d.mc)

# The roll-up classifier never misses a deadline: a tight per-query deadline
# truncates the roll-up or answers with the prior, and still exits 0 with a
# RunReport written.
run_cli(0 classify --dataset adult --n 2000 --deadline-ms 0.05
          --metrics-out classify.json)
if(NOT EXISTS "${WORK_DIR}/classify.json")
  message(FATAL_ERROR "classify --metrics-out wrote no report")
endif()
message(STATUS "ok: classify wrote classify.json")
