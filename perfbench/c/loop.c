/* LOOP_CALLS getppid calls with the results ignored, so every call takes
 * the same path under allow, stub and fake.  Writes its own ns per call to
 * stdout. */
#include "common.h"

#define SYS_getppid 110

void _start(void)
{
    char buf[32];
    char *text;
    unsigned long t0, t1;
    long i;

    t0 = clock_ns();
    for (i = 0; i < LOOP_CALLS; i++)
        sys0(SYS_getppid);
    t1 = clock_ns();
    text = fmt_ulong(buf, sizeof(buf), (t1 - t0) / LOOP_CALLS);
    sys3(SYS_write, 1, text, cstrlen(text));
    finish(0);
}
