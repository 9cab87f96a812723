/* A flat self-time sampler, loaded with LD_PRELOAD into any Linux x86-64
 * process: SIGPROF every millisecond of CPU time records the interrupted
 * instruction pointer. At exit (or on SIGTERM, so `timeout N` bounds a
 * run) it writes prof.<pid>.out in the working directory: a copy of
 * /proc/self/maps, a "PCS" line, then the samples as little-endian u64s.
 * symbolise.py turns the dump into profiles.
 *
 *   gcc -O2 -shared -fPIC -o libsampler.so tools/profile/sampler.c
 *   LD_PRELOAD=$PWD/libsampler.so ./binary args...
 */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long pcs[MAX_SAMPLES], taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        pcs[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

static void put(int fd, const void *buf, size_t len) {
    for (ssize_t n; len > 0 && (n = write(fd, buf, len)) > 0; len -= n)
        buf = (const char *)buf + n;
}

/* Async-signal-safe calls only (snprintf aside), so SIGTERM may run it. */
static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[64], buf[4096];
    snprintf(path, sizeof path, "prof.%d.out", (int)getpid());
    int out = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644), maps = open("/proc/self/maps", O_RDONLY);
    for (ssize_t n; (n = read(maps, buf, sizeof buf)) > 0;)
        put(out, buf, (size_t)n);
    close(maps);
    put(out, "PCS\n", 4);
    put(out, pcs, (taken < MAX_SAMPLES ? taken : MAX_SAMPLES) * sizeof pcs[0]);
    close(out);
}

static void on_term(int sig) { dump(), _exit(128 + sig); }

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    signal(SIGTERM, on_term);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) { dump(); }
