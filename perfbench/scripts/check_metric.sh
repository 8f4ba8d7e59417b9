#!/bin/sh
# Success means the app exited and left its ns per call in metric.txt;
# the number becomes the run's perf metric.
while kill -0 "$SLENS_APP_PID" 2>/dev/null; do sleep 0.005; done
m=$(cat metric.txt 2>/dev/null)
test -n "$m" || exit 1
echo "$m"
