#!/bin/bash
# Sends the token from token.txt (in the run's workdir) to the server at
# $1:$2 and checks that the same bytes come back.  Only builtins run, so a
# killed client leaves no child behind.
read -r token < token.txt || exit 1
exec 3<>"/dev/tcp/$1/$2" || exit 1
printf '%s' "$token" >&3
read -r -N "${#token}" reply <&3
test "$reply" = "$token"
