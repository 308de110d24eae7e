/* A sampling profiler in one preloaded object (scripts/profile.sh builds
 * and drives it): every 1 ms of CPU time SIGPROF takes a backtrace() of
 * whatever the process is doing into a buffer allocated up front; at exit
 * the raw return addresses are written to $SIGPROF_OUT, one sample a line,
 * leaf first, followed by /proc/self/maps ("M start-end perms offset dev
 * inode path"), which turns them into addresses within each object.
 * Nothing is symbolised here and nothing allocates in the handler.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#define MAX_SAMPLES 120000 /* two minutes of CPU time */
#define MAX_DEPTH 32
#define SKIP 2 /* the handler and the kernel's signal trampoline */

static void *frames[MAX_SAMPLES][MAX_DEPTH];
static int depth[MAX_SAMPLES];
static int taken; /* slots claimed; past MAX_SAMPLES once the buffer is full */

static void on_sigprof(int sig)
{
    (void)sig;
    /* SIGPROF lands on whichever thread is running: claim a slot atomically */
    int s = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (s < MAX_SAMPLES)
        depth[s] = backtrace(frames[s], MAX_DEPTH);
    else
        __atomic_store_n(&taken, MAX_SAMPLES, __ATOMIC_RELAXED); /* no wrap-around */
}

static void dump(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    if (!out)
        return;
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int s = 0; s < n; s++) {
        if (depth[s] <= SKIP) /* claimed by a thread that had not unwound yet */
            continue;
        for (int f = SKIP; f < depth[s]; f++)
            fprintf(out, "%s%p", f == SKIP ? "" : " ", frames[s][f]);
        fputc('\n', out);
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    if (maps)
        fclose(maps);
    fclose(out);
}

__attribute__((constructor)) static void start(void)
{
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not in the handler */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_sigprof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
    atexit(dump);
}
