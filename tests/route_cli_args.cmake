# route_cli flag parsing end to end: every --algo spelling routes and
# verifies, a malformed value exits 2, and README's fault drill recovers
# on its second attempt.
#
#   cmake -DROUTE_CLI=path/to/route_cli -DINSTANCE=clustered_r1.inst \
#         -P tests/route_cli_args.cmake

foreach(algo ast zst bst sep ast_dme zst_dme ext_bst separate_stitch)
  execute_process(
    COMMAND ${ROUTE_CLI} ${INSTANCE} --algo ${algo} --threads 1
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--algo ${algo} exited ${rc}:\n${out}${err}")
  endif()
  string(FIND "${out}" "verification    : OK" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "--algo ${algo} did not verify:\n${out}")
  endif()
endforeach()

foreach(args IN ITEMS "--algo;nonesuch" "--threads;x" "--deadline;5x"
                      "--fault-seed;x")
  execute_process(
    COMMAND ${ROUTE_CLI} ${INSTANCE} ${args}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    string(REPLACE ";" " " shown "${args}")
    message(FATAL_ERROR "'${shown}' exited ${rc}, want 2")
  endif()
endforeach()

execute_process(
  COMMAND ${ROUTE_CLI} ${INSTANCE} --algo zst --shards 8 --fault-seed 7
          --retries 3 --degrade
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fault drill exited ${rc}:\n${out}${err}")
endif()
string(FIND "${out}" "attempts        : 2" at)
if(at EQUAL -1)
  message(FATAL_ERROR "fault drill did not recover on attempt 2:\n${out}")
endif()
