# Build file of the end-to-end benchmark. It attaches the benchmark to
# the root build without editing it: passed as the root project's
# include file,
#
#   cmake -S . -B .bench_build/bench_e2e -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_hwprnas_INCLUDE=$PWD/bench_e2e/bench_e2e.cmake
#   cmake --build .bench_build/bench_e2e --target bench_e2e
#
# it defers defining the bench_e2e target to the end of the root
# CMakeLists.txt, so the target gets the root's flags, options and
# include paths. bench_e2e/run.py does exactly this before every run.
if(CMAKE_VERSION VERSION_LESS 3.19)
    message(FATAL_ERROR "bench_e2e needs CMake 3.19 (cmake_language DEFER)")
endif()
set(HWPR_BENCH_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})

function(hwpr_add_bench_e2e)
    set(dir ${HWPR_BENCH_E2E_DIR})
    add_executable(bench_e2e
        ${dir}/main.cc
        ${dir}/harness.cc
        ${dir}/heap.cc
        ${dir}/offline.cc
        ${dir}/serve_load.cc
    )
    target_include_directories(bench_e2e PRIVATE
        ${dir} ${CMAKE_SOURCE_DIR}/bench)
    target_link_libraries(bench_e2e PRIVATE hwpr_serve hwpr_baselines)

    add_test(NAME bench_e2e_smoke
        COMMAND bench_e2e --smoke --out ${CMAKE_BINARY_DIR}/bench_e2e_smoke)
    set_tests_properties(bench_e2e_smoke PROPERTIES TIMEOUT 120)
endfunction()

cmake_language(DEFER CALL hwpr_add_bench_e2e)
