# Checks that one profiled CLI run wrote the same object to both of its
# record sinks: the last line of the ledger (--ledger), minus its `seq`,
# must equal the --record-out file as parsed JSON, and the record must
# carry the profile the run collected.
#
#   cmake -DRECORD=record.json -DLEDGER=ledger.jsonl \
#         -P record_matches_ledger.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(READ "${RECORD}" record)
file(READ "${LEDGER}" ledger)
string(STRIP "${ledger}" ledger)
string(FIND "${ledger}" "\n" last_newline REVERSE)
math(EXPR line_start "${last_newline} + 1")
string(SUBSTRING "${ledger}" ${line_start} -1 line)

string(JSON seq ERROR_VARIABLE error GET "${line}" seq)
if(error)
  message(FATAL_ERROR "${LEDGER}: last line has no seq: ${error}")
endif()
string(JSON line REMOVE "${line}" seq)
string(JSON same ERROR_VARIABLE error EQUAL "${record}" "${line}")
if(error)
  message(FATAL_ERROR "cannot compare ${RECORD} with ${LEDGER}: ${error}")
elseif(NOT same)
  message(FATAL_ERROR "${RECORD} differs from line ${seq} of ${LEDGER} "
                      "minus seq:\n${record}\n${line}")
endif()
string(JSON profile_type ERROR_VARIABLE error TYPE "${record}" profile)
if(NOT profile_type STREQUAL "OBJECT")
  message(FATAL_ERROR "${RECORD}: a --profile run recorded no profile")
endif()
message(STATUS "${RECORD} equals ledger line ${seq} minus seq")
