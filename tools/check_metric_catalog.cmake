# Checks that the metric catalog in docs/observability.md is the complete
# list of counters the code registers: each table row `| `prefix.*` |
# source | `name`, ... |` expands to prefix.name, and that set must equal
# the set of literal RegisterCounter("...") names under src/, in both
# directions. Catalog names with a <placeholder> (budget.exhausted.<limit>)
# are built at run time and have no literal to match.
#
#   cmake -DDOC=docs/observability.md -DSRC=src \
#         -P check_metric_catalog.cmake
cmake_minimum_required(VERSION 3.19)

# The section runs from its heading to the next one. Read whole, not by
# line: CMake lists would merge lines across an unbalanced '[' elsewhere
# in the document.
file(READ "${DOC}" doc)
string(FIND "${doc}" "\n### Metric catalog\n" start)
if(start EQUAL -1)
  message(FATAL_ERROR "${DOC}: no '### Metric catalog' section")
endif()
math(EXPR start "${start} + 1")
string(SUBSTRING "${doc}" ${start} -1 catalog)
string(FIND "${catalog}" "\n#" end)
string(SUBSTRING "${catalog}" 0 ${end} catalog)

set(documented "")
string(REGEX MATCHALL "\n\\| `[a-z_.]+\\*` \\|[^\n]*" rows "${catalog}")
foreach(row IN LISTS rows)
  if(NOT row MATCHES "^\n\\| `([a-z_.]+)\\*` \\|[^|]*\\|(.*)\\|$")
    message(FATAL_ERROR "${DOC}: malformed catalog row:${row}")
  endif()
  set(prefix "${CMAKE_MATCH_1}")
  string(REGEX MATCHALL "`[^`]+`" names "${CMAKE_MATCH_2}")
  foreach(name IN LISTS names)
    string(REPLACE "`" "" name "${name}")
    if(NOT name MATCHES "<")
      list(APPEND documented "${prefix}${name}")
    endif()
  endforeach()
endforeach()
if(NOT documented)
  message(FATAL_ERROR "${DOC}: no metric catalog rows found")
endif()

file(GLOB_RECURSE sources "${SRC}/*.cc" "${SRC}/*.h")
set(registered "")
foreach(source IN LISTS sources)
  file(READ "${source}" text)
  string(REGEX MATCHALL "RegisterCounter\\([ \t\r\n]*\"[^\"]+\"" calls
         "${text}")
  foreach(call IN LISTS calls)
    string(REGEX REPLACE ".*\"([^\"]+)\"" "\\1" name "${call}")
    list(APPEND registered "${name}")
  endforeach()
endforeach()

list(REMOVE_DUPLICATES documented)
list(REMOVE_DUPLICATES registered)
set(undocumented ${registered})
list(REMOVE_ITEM undocumented ${documented})
set(unregistered ${documented})
list(REMOVE_ITEM unregistered ${registered})
if(undocumented OR unregistered)
  message(FATAL_ERROR
          "metric catalog and code disagree\n"
          "  registered in ${SRC} but not in the catalog: ${undocumented}\n"
          "  in the catalog but never registered: ${unregistered}")
endif()
list(LENGTH registered count)
message(STATUS "metric catalog lists all ${count} registered counters")
