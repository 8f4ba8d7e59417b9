/* Writes "OK" to out.txt with one write call, retrying short writes.  A
 * faked write reports 0 bytes written, so the loop then spins forever, one
 * trapped write per turn. */
#include "common.h"

void _start(void)
{
    const char *text = "OK";
    long left = 2, n;
    long fd = sys4(SYS_openat, AT_FDCWD, "out.txt", O_WRONLY | O_CREAT | O_TRUNC, 0644);
    while (left > 0) {
        n = sys3(SYS_write, fd, text, left);
        if (n < 0)
            finish(3);
        text += n;
        left -= n;
    }
    sys1(SYS_close, fd);
    finish(0);
}
