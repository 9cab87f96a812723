/* An allocation-site profiler, loaded with LD_PRELOAD into any Linux x86-64
 * process: every malloc, calloc, realloc, posix_memalign, aligned_alloc and
 * memalign is forwarded to glibc's __libc_* entry points and counted, with
 * its bytes, against the chain of return addresses a frame-pointer walk
 * finds above it. At exit (or on SIGTERM) it writes allocs.<pid>.out in the
 * working directory in sampler.c's layout: a copy of /proc/self/maps, an
 * "ALLOCS <depth>" line, then one record per chain as little-endian u64s
 * (calls, bytes, then <depth> return addresses, 0-padded).
 * `symbolise.py --allocs` turns the dump into a profile by layer.
 *
 * Build the measured program with frame pointers, in its own target dir:
 *   gcc -O2 -shared -fPIC -fno-omit-frame-pointer -o liballocs.so tools/profile/allocs.c
 *   RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=/tmp/fp cargo build --release
 *   LD_PRELOAD=$PWD/liballocs.so ./binary args...
 *
 * The hook never allocates (a static table) and never calls backtrace(),
 * whose first call can. Only the main thread's stack is walked; a call on
 * any other thread is charged to its immediate caller alone. */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <unistd.h>

#define DEPTH 32
#define SLOTS (1 << 15)
struct chain { uint64_t calls, bytes, pcs[DEPTH]; };
static struct chain table[SLOTS];
static uint64_t lost;
static char lock;
extern void *__libc_stack_end;
extern void *__libc_malloc(size_t), *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t), *__libc_memalign(size_t, size_t);

/* Walk saved frame pointers up the main stack: each frame must lie above
 * the last one and below the stack's end, or the walk stops. */
static __attribute__((noinline)) void count(size_t bytes) {
    uint64_t pcs[DEPTH] = {0};
    /* Start at the hook's frame (count() is not inlined, and both are ours). */
    uintptr_t *fp = (uintptr_t *)((uintptr_t *)__builtin_frame_address(0))[0], *end = __libc_stack_end;
    if (!(fp < end && (uintptr_t)(end - fp) < (64 << 20) / sizeof *fp)) {
        pcs[0] = fp[1];
    } else {
        for (int d = 0; d < DEPTH && fp < end && ((uintptr_t)fp & 7) == 0; d++) {
            if (!(pcs[d] = fp[1]))
                break;
            uintptr_t *up = (uintptr_t *)fp[0];
            if (up <= fp)
                break;
            fp = up;
        }
    }
    uint64_t h = 0;
    for (int d = 0; d < DEPTH; d++)
        h = (h ^ pcs[d]) * 0x9e3779b97f4a7c15ull;
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
    for (uint64_t i = h >> 49, probes = 0;; i = (i + 1) % SLOTS) {
        struct chain *c = &table[i];
        if (probes++ == SLOTS) {
            lost++;
            break;
        }
        if (c->calls == 0)
            memcpy(c->pcs, pcs, sizeof pcs);
        else if (memcmp(c->pcs, pcs, sizeof pcs))
            continue;
        c->calls++, c->bytes += bytes;
        break;
    }
    __atomic_clear(&lock, __ATOMIC_RELEASE);
}

void *malloc(size_t n) {
    count(n);
    return __libc_malloc(n);
}

void *calloc(size_t k, size_t n) {
    count(k * n);
    return __libc_calloc(k, n);
}

void *realloc(void *p, size_t n) {
    count(n);
    return __libc_realloc(p, n);
}

void *memalign(size_t align, size_t n) {
    count(n);
    return __libc_memalign(align, n);
}

void *aligned_alloc(size_t align, size_t n) {
    count(n);
    return __libc_memalign(align, n);
}

int posix_memalign(void **out, size_t align, size_t n) {
    count(n);
    if (align % sizeof(void *) || (align & (align - 1)))
        return 22; /* EINVAL */
    void *p = __libc_memalign(align, n);
    if (!p && n)
        return 12; /* ENOMEM */
    *out = p;
    return 0;
}

static void put(int fd, const void *buf, size_t len) {
    for (ssize_t n; len > 0 && (n = write(fd, buf, len)) > 0; len -= n)
        buf = (const char *)buf + n;
}

/* Async-signal-safe calls only (snprintf aside), so SIGTERM may run it. */
static void dump(void) {
    char path[64], buf[4096];
    snprintf(path, sizeof path, "allocs.%d.out", (int)getpid());
    int out = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644), maps = open("/proc/self/maps", O_RDONLY);
    for (ssize_t n; (n = read(maps, buf, sizeof buf)) > 0;)
        put(out, buf, (size_t)n);
    close(maps);
    int len = snprintf(buf, sizeof buf, "ALLOCS %d\n", DEPTH);
    put(out, buf, (size_t)len);
    for (int i = 0; i < SLOTS; i++)
        if (table[i].calls)
            put(out, &table[i], sizeof table[i]);
    close(out);
    if (lost)
        fprintf(stderr, "allocs.c: table full, %llu calls not recorded\n", (unsigned long long)lost);
}

static void on_term(int sig) { dump(), _exit(128 + sig); }

__attribute__((constructor)) static void start(void) { signal(SIGTERM, on_term); }

__attribute__((destructor)) static void stop(void) { dump(); }
