# Included by the root project() call (CMAKE_PROJECT_INCLUDE). Defers reading
# this directory's CMakeLists.txt until the root CMakeLists.txt has been
# processed, so every library target it defines exists. A deferred call
# expands its arguments only when it runs, hence EVAL: the path is fixed now.
cmake_language(EVAL CODE "
  cmake_language(DEFER DIRECTORY \"${CMAKE_SOURCE_DIR}\"
    CALL include \"${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt\")")
