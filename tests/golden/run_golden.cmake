# Runs one paper bench at --scale 0.03 and compares its stdout byte for
# byte with the checked-in file.
#
#   cmake -DBENCH=<bench binary> -DEXPECTED=<golden file>
#         -DACTUAL=<output file> -P run_golden.cmake
#
# To regenerate a golden file after an intended output change:
#   build/bench/<name> --scale 0.03 > tests/golden/<name>.txt
get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
execute_process(COMMAND "${BENCH}" --scale 0.03
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${EXPECTED}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${EXPECTED}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${EXPECTED}")
endif()
