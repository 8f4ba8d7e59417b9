/* Vforks once.  The child asks for its parent's pid and exits with 0 if it
 * got one, 1 if not; the parent reaps it and exits with the child's status.
 * A vfork child borrows its parent's memory, stack included, until it
 * exits, so it makes raw syscalls only: at -O2 gcc inlines sys6, and the
 * child keeps everything in registers and writes nothing to the stack. */
#include "common.h"

#define SYS_vfork 58

void _start(void)
{
    int status = 0;
    long pid = sys0(SYS_vfork);
    if (pid == 0)
        for (;;)
            sys1(SYS_exit, sys0(SYS_getppid) > 0 ? 0 : 1);
    if (pid < 0)
        finish(2);
    sys4(SYS_wait4, pid, &status, 0, 0);
    finish((status >> 8) & 0xff);
}
