/* A second thread execs "noop" from the cwd while the first sleeps: the
 * kernel ends the first thread and the exec'ing one takes over its pid. */
#include "common.h"

#define SYS_clone 56
#define SYS_execve 59
/* CLONE_VM | CLONE_FS | CLONE_FILES | CLONE_SIGHAND | CLONE_THREAD | CLONE_SYSVSEM */
#define THREAD_FLAGS 0x50f00

static char stack[16384] __attribute__((aligned(16)));
static char path[] = "noop";
static char *argv[] = {path, 0};
static char *envp[] = {0};

void _start(void)
{
    /* The new thread starts on its own stack with the registers of the
     * caller, so it finds execve's arguments in r12-r14. */
    register long r12 __asm__("r12") = (long)path;
    register long r13 __asm__("r13") = (long)argv;
    register long r14 __asm__("r14") = (long)envp;
    long ret;
    __asm__ volatile("syscall\n\t"
                     "test %%rax, %%rax\n\t"
                     "jnz 1f\n\t"
                     "mov %%r12, %%rdi\n\t"
                     "mov %%r13, %%rsi\n\t"
                     "mov %%r14, %%rdx\n\t"
                     "mov $59, %%eax\n\t"
                     "syscall\n\t"
                     "mov $127, %%edi\n\t"
                     "mov $60, %%eax\n\t"
                     "syscall\n"
                     "1:"
                     : "=a"(ret)
                     : "a"((long)SYS_clone), "D"((long)THREAD_FLAGS),
                       "S"(stack + sizeof stack), "d"(0L),
                       "r"(r12), "r"(r13), "r"(r14)
                     : "rcx", "r11", "memory");
    if (ret < 0)
        finish(1);
    for (;;)
        sleep_ms(1000); /* ended by the other thread's exec */
}
