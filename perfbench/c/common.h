/* Freestanding helpers for the benchmark's generated apps.
 *
 * Apps are built with -nostdlib -static -ffreestanding -mstackrealign, so
 * their syscall footprint is exactly the calls they make.  Raw syscalls
 * return raw kernel values (-errno on failure).
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

static long sys6(long n, long a, long b, long c, long d, long e, long f)
{
    register long r10 __asm__("r10") = d;
    register long r8 __asm__("r8") = e;
    register long r9 __asm__("r9") = f;
    long ret;
    __asm__ volatile("syscall"
                     : "=a"(ret)
                     : "a"(n), "D"(a), "S"(b), "d"(c), "r"(r10), "r"(r8), "r"(r9)
                     : "rcx", "r11", "memory");
    return ret;
}

#define sys0(n) sys6(n, 0, 0, 0, 0, 0, 0)
#define sys1(n, a) sys6(n, (long)(a), 0, 0, 0, 0, 0)
#define sys2(n, a, b) sys6(n, (long)(a), (long)(b), 0, 0, 0, 0)
#define sys3(n, a, b, c) sys6(n, (long)(a), (long)(b), (long)(c), 0, 0, 0)
#define sys4(n, a, b, c, d) sys6(n, (long)(a), (long)(b), (long)(c), (long)(d), 0, 0)

#define SYS_read 0
#define SYS_write 1
#define SYS_close 3
#define SYS_socket 41
#define SYS_accept 43
#define SYS_bind 49
#define SYS_listen 50
#define SYS_setsockopt 54
#define SYS_fork 57
#define SYS_execve 59
#define SYS_exit 60
#define SYS_wait4 61
#define SYS_clock_gettime 228
#define SYS_exit_group 231
#define SYS_openat 257

#define ENOSYS 38
#define AT_FDCWD (-100)
#define O_WRONLY 1
#define O_CREAT 0100
#define O_TRUNC 01000
#define CLOCK_MONOTONIC 1

/* Exit status of an app whose own check of a syscall result failed. */
#define CHECK_FAILED 3

/* Terminate.  exit_group succeeds in unprobed runs; the exit fallback runs
 * only when exit_group itself is suppressed, and its status 60 makes that
 * probe fail, so exit_group is always classified required. */
static void finish(long code)
{
    for (;;) {
        sys1(SYS_exit_group, code);
        sys1(SYS_exit, 60);
    }
}

static long cstrlen(const char *s)
{
    long n = 0;
    while (s[n])
        n++;
    return n;
}

/* Create a file in the cwd holding exactly ``text``; any short or failed
 * step fails the app.  close's result is ignored. */
static void write_file(const char *path, const char *text)
{
    long len = cstrlen(text);
    long fd = sys4(SYS_openat, AT_FDCWD, path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        finish(CHECK_FAILED);
    if (sys3(SYS_write, fd, text, len) != len)
        finish(CHECK_FAILED);
    sys1(SYS_close, fd);
}

/* Unsigned decimal formatter; returns a pointer into buf. */
static char *fmt_ulong(char *buf, long len, unsigned long v)
{
    char *p = buf + len - 1;
    *p = '\0';
    do {
        *--p = '0' + (v % 10);
        v /= 10;
    } while (v);
    return p;
}

/* Monotonic clock in ns through the raw syscall (no vDSO in freestanding
 * code).  The result is ignored: a suppressed call leaves ts at zero. */
static unsigned long clock_ns(void)
{
    long ts[2] = {0, 0};
    sys2(SYS_clock_gettime, CLOCK_MONOTONIC, ts);
    return (unsigned long)ts[0] * 1000000000UL + (unsigned long)ts[1];
}

#endif
