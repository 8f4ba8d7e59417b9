#!/bin/sh
# Always passes: the harness's fixed cost without any workload logic.
exit 0
