# Pins the simulator's observable outputs byte for byte: runs a fixed
# list of simulator-driven benches and examples and compares each one's
# stdout (and bench_faults' JSON) with the golden file of the same name
# under tests/golden/sim. Simulator runs are a pure function of
# (protocol, seed), so there is no tolerance: any difference fails.
#
#   cmake -DBENCH_DIR=<dir with bench_*> -DEXAMPLES_DIR=<dir with
#         dcount_cli, trace_dot> -DGOLDEN_DIR=<tests/golden/sim>
#         -DWORK_DIR=<scratch dir> -P sim_outputs_golden.cmake
#
# Each run's stdout is also written to WORK_DIR/<name>.out; after a
# deliberate output change that file is the new golden.
cmake_minimum_required(VERSION 3.16)

foreach(var BENCH_DIR EXAMPLES_DIR GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sim_outputs_golden.cmake needs -D${var}=<dir>")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

set(failed "")

# Compares `actual` with the golden file `name`, recording a mismatch.
function(expect_golden name actual)
  file(WRITE "${WORK_DIR}/${name}" "${actual}")
  file(READ "${GOLDEN_DIR}/${name}" want)
  if(NOT actual STREQUAL want)
    set(failed "${failed}\n  diff ${GOLDEN_DIR}/${name} ${WORK_DIR}/${name}"
        PARENT_SCOPE)
  endif()
endfunction()

# Runs `program` with the remaining arguments and compares its stdout
# with the golden `<name>.out`.
function(expect_stdout name program)
  execute_process(COMMAND "${program}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE out
                  ERROR_QUIET
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    set(failed "${failed}\n  ${name} exited with ${rc}" PARENT_SCOPE)
    return()
  endif()
  expect_golden("${name}.out" "${out}")
  set(failed "${failed}" PARENT_SCOPE)
endfunction()

foreach(bench ablation diffraction figures generality lemmas linearizability
              lower_bound quorum rounds skew topology)
  expect_stdout(bench_${bench} "${BENCH_DIR}/bench_${bench}")
endforeach()
set(faults_json "${WORK_DIR}/BENCH_faults_smoke.json")
file(REMOVE "${faults_json}")
expect_stdout(bench_faults "${BENCH_DIR}/bench_faults" --k_list=2
              --crash_k_list=2 --drops=0,0.1 --crash_list=0,1,2
              --out=BENCH_faults_smoke.json)
if(EXISTS "${faults_json}")
  file(READ "${faults_json}" text)
  expect_golden(bench_faults.json "${text}")
else()
  string(APPEND failed "\n  bench_faults wrote no JSON")
endif()
expect_stdout(bench_baselines "${BENCH_DIR}/bench_baselines" --sizes=64,256)
expect_stdout(bench_contention "${BENCH_DIR}/bench_contention"
              --sizes=81,256)
expect_stdout(bench_upper_bound "${BENCH_DIR}/bench_upper_bound" --kmax=4)
foreach(kind tree static-tree central combining counting-net periodic-net
             diffracting quorum-majority quorum-grid)
  expect_stdout(dcount_cli_${kind} "${EXAMPLES_DIR}/dcount_cli"
                --counter=${kind})
endforeach()
expect_stdout(trace_dot "${EXAMPLES_DIR}/trace_dot")

if(NOT failed STREQUAL "")
  message(FATAL_ERROR "simulator outputs differ from the golden files:"
                      "${failed}")
endif()
