# Fails unless `tools/bench_aggregates.sh compare A B` exits CODE and prints
# exactly the contents of EXPECTED:
#   cmake -DSCRIPT=tools/bench_aggregates.sh -DA=dir -DB=dir -DCODE=1
#         -DEXPECTED=file -P expect_compare.cmake
execute_process(COMMAND bash "${SCRIPT}" compare "${A}" "${B}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(READ "${EXPECTED}" want)
if(NOT rc STREQUAL "${CODE}")
  message(FATAL_ERROR "compare ${A} ${B} exited ${rc}, want ${CODE}\n${out}${err}")
endif()
if(NOT out STREQUAL want)
  message(FATAL_ERROR "compare ${A} ${B} printed\n${out}want\n${want}")
endif()
