# perf_diff refuses to gate a file without the calibration row: it exits 2
# instead of comparing raw times under a "calibrated" label, unless
# --no-calibrate asks for raw wall-clock.
#
#   cmake -DPYTHON=python3 -DPERF_DIFF=bench/perf_diff.py \
#         -DBASELINE=bench/BENCH_micro_perf.baseline.json -DWORK_DIR=build \
#         -P tests/perf_diff_calibration.cmake

set(current ${WORK_DIR}/perf_diff_uncalibrated.json)
file(WRITE ${current}
  "[\n  {\"bench\": \"engine_reduce\", \"backend\": \"grid\", \"n\": 512, "
  "\"seconds\": 0.003, \"merges\": 511, \"merges_per_sec\": 170000, "
  "\"wirelength\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0, "
  "\"calib_ratio\": 0.3}\n]\n")

execute_process(
  COMMAND ${PYTHON} ${PERF_DIFF} --current ${current} --baseline ${BASELINE}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "a file without calibration:scan exited ${rc}, "
                      "want 2:\n${out}${err}")
endif()
string(FIND "${err}" "calibration:scan" at)
if(at EQUAL -1)
  message(FATAL_ERROR "exit 2 did not name the calibration row:\n${err}")
endif()

execute_process(
  COMMAND ${PYTHON} ${PERF_DIFF} --current ${current} --baseline ${current}
          --no-calibrate
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--no-calibrate on identical files exited ${rc}, "
                      "want 0:\n${out}${err}")
endif()
