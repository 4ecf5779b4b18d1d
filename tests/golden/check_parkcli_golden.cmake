# Runs parkcli on each golden case and compares its stdout byte for byte
# with the case's golden file. Every case runs with and without
# --block-first, at 1 and at 4 threads; both thread counts must print the
# same bytes. Invoked by the parkcli_golden ctest:
#
#   cmake -DPARKCLI=<parkcli> -DDATA=<examples/data> -DGOLDEN=<tests/golden>
#         -P check_parkcli_golden.cmake
#
# To regenerate the golden files after an intended output change, add
# -DUPDATE=1: each golden file is then rewritten from the 1-thread run.

set(failures 0)

# Runs one case: its rules and facts files, then any extra arguments.
function(check_case name rules facts)
  foreach(granularity all first)
    set(flags "")
    if(granularity STREQUAL "first")
      set(flags --block-first)
    endif()
    set(golden_file "${GOLDEN}/${name}.${granularity}.out")
    foreach(threads 1 4)
      execute_process(
        COMMAND "${PARKCLI}" --rules "${rules}" --facts "${facts}"
                --trace --provenance --threads ${threads} ${flags} ${ARGN}
        OUTPUT_VARIABLE actual
        RESULT_VARIABLE status)
      if(NOT status EQUAL 0)
        message(SEND_ERROR "${name} ${granularity} threads=${threads}: "
                           "parkcli exited ${status}")
        math(EXPR failures "${failures} + 1")
        continue()
      endif()
      if(UPDATE AND threads EQUAL 1)
        file(WRITE "${golden_file}" "${actual}")
      endif()
      file(READ "${golden_file}" expected)
      if(NOT actual STREQUAL expected)
        message(SEND_ERROR "${name} ${granularity} threads=${threads}: "
                           "output differs from ${golden_file}:\n${actual}")
        math(EXPR failures "${failures} + 1")
      endif()
    endforeach()
  endforeach()
  set(failures ${failures} PARENT_SCOPE)
endfunction()

check_case(section5 ${DATA}/section5.rules ${DATA}/section5.facts)
check_case(payroll ${DATA}/payroll.rules ${DATA}/payroll.facts
           --update "+emp(carol)" --update "-active(bob)")
check_case(irreflexive6_inertia
           ${GOLDEN}/irreflexive6.rules ${GOLDEN}/irreflexive6.facts)
check_case(irreflexive6_random7
           ${GOLDEN}/irreflexive6.rules ${GOLDEN}/irreflexive6.facts
           --policy random:7)
check_case(block_first_r0_first
           ${GOLDEN}/block_first_r0_first.rules ${GOLDEN}/block_first.facts)
check_case(block_first_r0_last
           ${GOLDEN}/block_first_r0_last.rules ${GOLDEN}/block_first.facts)

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} golden comparison(s) failed")
endif()
