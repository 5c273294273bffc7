# Determinism contract: a fixed seed prints byte-identical stdout at
# any pool size. Runs a serve drain, the scenario verifier and an
# adaptive engine run (drift -> gauge -> warm-start retrain, so the
# query's bill is taken while gauges run mid-shuffle) at
# WANIFY_THREADS=1 and WANIFY_THREADS=4 and fails on any difference.
# With the optional -DFIG11=, it also checks
# bench_fig11_prediction_accuracy, which trains the campaign forests
# on the pool.
#
#   cmake -DSERVE=path/to/wanify-serve -DSCENARIO=path/to/wanify-scenario \
#         [-DFIG11=path/to/bench_fig11_prediction_accuracy] \
#         -P tools/thread_determinism.cmake

foreach(var SERVE SCENARIO)
  if(NOT EXISTS "${${var}}")
    message(FATAL_ERROR "thread_determinism: pass -D${var}=<binary>")
  endif()
endforeach()

# Runs the command in ARGN with WANIFY_THREADS=<threads>; stores its
# stdout in <out>.
function(stdout_at threads out)
  set(ENV{WANIFY_THREADS} ${threads})
  execute_process(COMMAND ${ARGN}
                  OUTPUT_VARIABLE stdout
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "WANIFY_THREADS=${threads} ${cmd} exited with ${rc}")
  endif()
  set(${out} "${stdout}" PARENT_SCOPE)
endfunction()

function(expect_thread_invariant)
  string(REPLACE ";" " " cmd "${ARGN}")
  stdout_at(1 one ${ARGN})
  stdout_at(4 four ${ARGN})
  if(NOT one STREQUAL four)
    message(FATAL_ERROR
            "stdout differs between WANIFY_THREADS=1 and 4: ${cmd}\n"
            "--- 1 thread:\n${one}\n--- 4 threads:\n${four}")
  endif()
  message(STATUS "identical at 1 and 4 threads: ${cmd}")
endfunction()

expect_thread_invariant(${SERVE} run --queries 40 --dcs 6 --concurrent 24
                        --window 20 --retrain-every 15 --seed 7)
expect_thread_invariant(${SCENARIO} verify --dcs 4 --vms 2 --horizon 120)
expect_thread_invariant(${SCENARIO} run dc-outage --dcs 4 --vms 2 --adapt
                        --retrain --runs 2 --seed 7)
if(DEFINED FIG11)
  if(NOT EXISTS "${FIG11}")
    message(FATAL_ERROR "thread_determinism: no binary at -DFIG11=${FIG11}")
  endif()
  expect_thread_invariant(${FIG11})
endif()
