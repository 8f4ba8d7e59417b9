#!/bin/sh
# Success means the app exited and left out.txt holding exactly OK.
while kill -0 "$SLENS_APP_PID" 2>/dev/null; do sleep 0.005; done
test "$(cat out.txt 2>/dev/null)" = "OK"
