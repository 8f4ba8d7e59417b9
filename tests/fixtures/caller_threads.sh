#!/bin/sh
# Prints the thread count of the process that runs this script.
awk '/^Threads:/ { print $2 }' "/proc/$PPID/status"
