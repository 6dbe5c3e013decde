# Build file of the end-to-end benchmark. It is injected into the
# top-level project instead of being added by it, so building the
# benchmark changes no file outside bench/e2e:
#
#   cmake -S . -B build-e2e -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/bench/e2e/targets.cmake
#   cmake --build build-e2e --target pythia_e2e
#
# CMAKE_PROJECT_INCLUDE runs inside project(), before the top-level
# CMAKE_CXX_STANDARD and compile options are set, so the target sets its
# own; the pythia_* link names resolve once the library targets exist.
include_guard(GLOBAL)

add_executable(pythia_e2e
  ${CMAKE_CURRENT_LIST_DIR}/common.cpp
  ${CMAKE_CURRENT_LIST_DIR}/layers.cpp
  ${CMAKE_CURRENT_LIST_DIR}/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/paths.cpp
  ${CMAKE_CURRENT_LIST_DIR}/prepare.cpp)
target_compile_features(pythia_e2e PRIVATE cxx_std_20)
set_target_properties(pythia_e2e PROPERTIES CXX_EXTENSIONS OFF)
target_compile_options(pythia_e2e PRIVATE -Wall -Wextra)
target_include_directories(pythia_e2e PRIVATE ${CMAKE_SOURCE_DIR})
target_link_libraries(pythia_e2e PRIVATE pythia_harness pythia_serve
  pythia_engine pythia_apps pythia_core pythia_support)
