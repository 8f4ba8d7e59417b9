#!/bin/sh
# Waits for the app's output, then SIGKILLs it and waits until it is gone.
until test -s out.txt; do sleep 0.005; done
kill -KILL "$SLENS_APP_PID"
while kill -0 "$SLENS_APP_PID" 2>/dev/null; do sleep 0.005; done
exit 0
