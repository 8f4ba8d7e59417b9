/* Echo server for the analyze-server workload: listens on the port given
 * as argv[1] and echoes one buffer back per connection, until killed.
 *
 * Expected classes: socket, bind, listen, accept, read and write are
 * required; setsockopt and close ignore their results and are any.  With
 * bind or accept faked the server never answers, so those probes end in a
 * timeout; with accept faked it reads fd 0, which must be /dev/null. */
#include "common.h"

__attribute__((naked)) void _start(void)
{
    __asm__ volatile("mov %rsp, %rdi\n\t"
                     "call server_main");
}

static long parse_port(const char *s)
{
    long v = 0;
    while (*s >= '0' && *s <= '9')
        v = v * 10 + (*s++ - '0');
    return v;
}

void server_main(long *stack)
{
    long argc = stack[0];
    char **argv = (char **)(stack + 1);
    long port = argc > 1 ? parse_port(argv[1]) : 0;
    unsigned char addr[16] = {0};
    char buf[512];
    int one = 1;
    long fd, conn, n;

    if (port <= 0 || port > 65535)
        finish(9);
    addr[0] = 2;                      /* AF_INET */
    addr[2] = (port >> 8) & 0xff;     /* htons(port) */
    addr[3] = port & 0xff;
    addr[4] = 127;                    /* 127.0.0.1 */
    addr[7] = 1;
    fd = sys3(SYS_socket, 2, 1, 0);   /* AF_INET, SOCK_STREAM */
    if (fd < 0)
        finish(10);
    sys6(SYS_setsockopt, fd, 1, 2, (long)&one, 4, 0);  /* SO_REUSEADDR */
    if (sys3(SYS_bind, fd, addr, 16) < 0)
        finish(11);
    if (sys2(SYS_listen, fd, 16) < 0)
        finish(12);
    for (;;) {
        conn = sys3(SYS_accept, fd, 0, 0);
        if (conn < 0)
            finish(13);
        n = sys3(SYS_read, conn, buf, sizeof(buf));
        if (n > 0)
            sys3(SYS_write, conn, buf, n);
        sys1(SYS_close, conn);
    }
}
