/* The numeric engine's compiled supernode loop.
 *
 * One call runs one scheduler task of a multifrontal factorization
 * (repro_run_task) or one whole supernodal solve (repro_solve), reading
 * the flat maps of a pattern-cached NumericContext (repro_ctx).  The dense
 * kernels are the LAPACK/BLAS routines scipy.linalg.cython_blas and
 * cython_lapack export; their addresses are stored in repro_blas once, at
 * import (declared in _core.h, with every type and entry point here).
 * Nothing else is global: a factorization's state is its repro_job, so
 * independent jobs run concurrently on threads.
 *
 * Layout (see repro/numeric/dense.py): a front of k pivots and m update
 * rows is held split, each part C-ordered -- the pivot panel P
 * ((k + m) x k), for LU the pivot rows right of it R (k x m), and the
 * update block C (m x m).  Every block a kernel touches is then the
 * transposed Fortran view of a C-ordered block with a leading dimension
 * of k or m, so the kernels run in place.
 *
 * Build with -ffp-contract=off: the per-pivot loops must round every
 * product and difference on its own, as NumPy does.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#include "_core.h"

repro_blas_t repro_blas;

struct repro_job {
    const repro_ctx *ctx;
    double *buf;         /* the factor buffer: every P | R */
    int64_t *bumped;     /* per supernode: pivots the LU bump replaced */
    int64_t block;
    double perturb;
    int lu;
    double **arena;      /* per grouped parent: its children's C blocks */
    double **update;     /* per supernode below a larger parent: its C */
};

static char N_ = 'N', T_ = 'T', U_ = 'U', L_ = 'L', R_ = 'R';
static double ONE = 1.0, MINUS = -1.0, ZERO = 0.0;
static int INC = 1;

static int fail(repro_status *st, int64_t code, int64_t pos, double pivot)
{
    st->code = code;
    st->pos = pos;
    st->pivot = pivot;
    return (int)code;
}

/* NumPy's pairwise summation (numpy/_core/src/umath/loops_utils.h.src),
 * so that "the factored block sums to a finite value" is decided exactly
 * as np.add.reduce decides it, overflow included. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Unpivoted LU of the w x w block d (row stride ld, front position k0)
 * in place; *bumped counts the pivots the static-pivoting bump replaced.
 * dgetrf on a column-major copy is kept if it swapped no row, no pivot
 * is below perturb and the factored block sums to a finite value: then
 * it is the unpivoted LU.  Otherwise the per-pivot loop -- the only code
 * that bumps (Li & Demmel) or fails -- factors the untouched values. */
static int lu_diagonal(double *d, int w, int64_t ld, int64_t k0,
                       double perturb, int64_t *bumped, repro_status *st)
{
    *bumped = 0;
    if (w > 1) {
        double *a = malloc((size_t)w * w * sizeof(double) + w * sizeof(int));
        if (!a)
            return fail(st, REPRO_NO_MEMORY, k0, 0.0);
        int *piv = (int *)(a + (size_t)w * w);
        int info = 0, ok;
        for (int j = 0; j < w; j++)
            for (int i = 0; i < w; i++)
                a[i + (int64_t)j * w] = d[i * ld + j];
        repro_blas.dgetrf(&w, &w, a, &w, piv, &info);
        ok = info == 0;
        for (int j = 0; ok && j < w; j++)
            ok = piv[j] == j + 1 && fabs(a[j + (int64_t)j * w]) >= perturb;
        if (ok)
            ok = isfinite(pairwise_sum(a, (int64_t)w * w));
        if (ok)
            for (int j = 0; j < w; j++)
                for (int i = 0; i < w; i++)
                    d[i * ld + j] = a[i + (int64_t)j * w];
        free(a);
        if (ok)
            return 0;
    }
    for (int64_t p = 0; p < w; p++) {
        double pivot = d[p * ld + p];
        if (fabs(pivot) < perturb) {
            pivot = pivot >= 0 ? perturb : -perturb;
            d[p * ld + p] = pivot;
            (*bumped)++;
        }
        if (!isfinite(pivot))
            return fail(st, REPRO_NON_FINITE, k0 + p, pivot);
        if (pivot == 0.0)
            return fail(st, REPRO_ZERO_PIVOT, k0 + p, pivot);
        for (int64_t i = p + 1; i < w; i++)
            d[i * ld + p] /= pivot;
        for (int64_t i = p + 1; i < w; i++)
            for (int64_t j = p + 1; j < w; j++)
                d[i * ld + j] -= d[i * ld + p] * d[p * ld + j];
    }
    return 0;
}

static int cholesky_front(double *P, double *C, int64_t k, int64_t m,
                          int64_t bs, repro_status *st)
{
    int64_t size = k + m;
    int ik = (int)k, im = (int)m;
    for (int64_t k0 = 0; k0 < k; k0 += bs) {
        int64_t k1 = k0 + bs < k ? k0 + bs : k;
        int w = (int)(k1 - k0);
        double *d = P + k0 * k + k0;
        if (w == 1) {
            double pivot = *d;
            if (pivot <= 0.0 || !isfinite(pivot))
                return fail(st, REPRO_NON_SPD, k0, pivot);
            *d = sqrt(pivot);
            for (int64_t r = k1; r < size; r++)
                P[r * k + k0] /= *d;
        } else {
            /* U^T U on the Fortran view, U = L11^T in its upper triangle.
             * A NaN/+Inf pivot passes dpotrf's "<= 0" test with info == 0;
             * the columns before a reported failure are final, so the
             * first bad position is the first non-finite diagonal, else
             * the reported one. */
            int info = 0;
            repro_blas.dpotrf(&U_, &w, d, &ik, &info);
            int good = info > 0 ? info - 1 : w;
            for (int j = 0; j < good; j++)
                if (!isfinite(d[j * (k + 1)]))
                    return fail(st, REPRO_NON_SPD, k0 + j, d[j * (k + 1)]);
            if (info > 0)
                return fail(st, REPRO_NON_SPD, k0 + info - 1,
                            d[(info - 1) * (k + 1)]);
            if (k1 < size) {
                /* L21 = A21 L11^-T, as U^T L21^T = A21^T. */
                int n = (int)(size - k1);
                repro_blas.dtrsm(&L_, &U_, &T_, &N_, &w, &n, &ONE, d, &ik,
                                 P + k1 * k + k0, &ik);
            }
        }
        if (k1 < k) {
            int mm = (int)(k - k1), n = (int)(size - k1);
            repro_blas.dgemm(&T_, &N_, &mm, &n, &w, &MINUS, P + k1 * k + k0,
                             &ik, P + k1 * k + k0, &ik, &ONE,
                             P + k1 * k + k1, &ik);
        }
    }
    if (m)
        repro_blas.dsyrk(&U_, &T_, &im, &ik, &MINUS, P + k * k, &ik, &ONE,
                         C, &im);
    return 0;
}

static int lu_front(double *P, double *R, double *C, int64_t k, int64_t m,
                    int64_t bs, double perturb, int64_t *bumped,
                    repro_status *st)
{
    int64_t size = k + m;
    int ik = (int)k, im = (int)m;
    *bumped = 0;
    for (int64_t k0 = 0; k0 < k; k0 += bs) {
        int64_t k1 = k0 + bs < k ? k0 + bs : k, nb;
        int w = (int)(k1 - k0);
        double *d = P + k0 * k + k0, *below = P + k1 * k + k0;
        int rc = lu_diagonal(d, w, k, k0, perturb, &nb, st);
        if (rc)
            return rc;
        *bumped += nb;
        if (w == 1) {
            for (int64_t r = k1; r < size; r++)
                P[r * k + k0] /= *d;
        } else {
            /* L21 = A21 U11^-1, as U11^T L21^T = A21^T; U12 = L11^-1 A12
             * (unit L11), as U12^T L11^T = A12^T, in P right of the panel
             * and in R. */
            if (k1 < size) {
                int n = (int)(size - k1);
                repro_blas.dtrsm(&L_, &L_, &N_, &N_, &w, &n, &ONE, d, &ik,
                                 below, &ik);
            }
            if (k1 < k) {
                int n = (int)(k - k1);
                repro_blas.dtrsm(&R_, &U_, &N_, &U_, &n, &w, &ONE, d, &ik,
                                 P + k0 * k + k1, &ik);
            }
            if (m)
                repro_blas.dtrsm(&R_, &U_, &N_, &U_, &im, &w, &ONE, d, &ik,
                                 R + k0 * m, &im);
        }
        if (k1 < k) {
            int mm = (int)(k - k1), n = (int)(size - k1);
            repro_blas.dgemm(&N_, &N_, &mm, &n, &w, &MINUS, P + k0 * k + k1,
                             &ik, below, &ik, &ONE, P + k1 * k + k1, &ik);
            if (m)
                repro_blas.dgemm(&N_, &N_, &im, &mm, &w, &MINUS, R + k0 * m,
                                 &im, P + k1 * k + k0, &ik, &ONE, R + k1 * m,
                                 &im);
        }
    }
    if (m)
        repro_blas.dgemm(&N_, &N_, &im, &im, &ik, &MINUS, R, &im, P + k * k,
                         &ik, &ONE, C, &im);
    return 0;
}

/* Factor one front in place: P becomes L11 over L21 (Cholesky; the strict
 * upper triangle of P's first k rows is unspecified) or unit L11 with U11
 * over L21 (LU), R becomes U12 (LU; NULL for Cholesky) and C receives the
 * Schur complement.  Panels of bs columns are factored right-looking
 * inside P | R.  lu: 0 for Cholesky. */
int repro_front(double *P, double *R, double *C, int64_t k, int64_t m,
                int64_t bs, double perturb, int lu, int64_t *bumped,
                repro_status *st)
{
    st->code = 0;
    st->sn = -1;
    *bumped = 0;
    if (k == 0)
        return 0;
    return lu ? lu_front(P, R, C, k, m, bs, perturb, bumped, st)
              : cholesky_front(P, C, k, m, bs, st);
}

/* -- one factorization ---------------------------------------------------- */

repro_job *repro_job_new(const repro_ctx *ctx, double *buf,
                         const double *values, int64_t *bumped,
                         int64_t block, double perturb, int lu)
{
    repro_job *job = calloc(1, sizeof(repro_job));
    if (!job)
        return NULL;
    job->arena = calloc(ctx->n_sn ? ctx->n_sn : 1, sizeof(double *));
    job->update = calloc(ctx->n_sn ? ctx->n_sn : 1, sizeof(double *));
    if (!job->arena || !job->update) {
        free(job->arena);
        free(job->update);
        free(job);
        return NULL;
    }
    job->ctx = ctx;
    job->buf = buf;
    job->bumped = bumped;
    job->block = block;
    job->perturb = perturb;
    job->lu = lu;
    for (int64_t j = 0; j < ctx->n_entries; j++)
        buf[ctx->dst[j]] = values[ctx->src[j]];
    return job;
}

/* Blocks not consumed yet: 0 after a complete factorization. */
int64_t repro_job_pending(const repro_job *job)
{
    int64_t n = 0;
    for (int64_t i = 0; i < job->ctx->n_sn; i++)
        n += (job->arena[i] != NULL) + (job->update[i] != NULL);
    return n;
}

void repro_job_free(repro_job *job)
{
    for (int64_t i = 0; i < job->ctx->n_sn; i++) {
        free(job->arena[i]);
        free(job->update[i]);
    }
    free(job->arena);
    free(job->update);
    free(job);
}

/* Grouped parent p's arena, allocated (zeroed) by whichever child gets
 * here first -- children in other tasks may race. */
static double *get_arena(repro_job *job, int64_t p)
{
    double *a = __atomic_load_n(&job->arena[p], __ATOMIC_ACQUIRE);
    if (a)
        return a;
    double *fresh = calloc(job->ctx->arena_len[p], sizeof(double));
    if (!fresh)
        return NULL;
    if (__atomic_compare_exchange_n(&job->arena[p], &a, fresh, 0,
                                    __ATOMIC_ACQ_REL, __ATOMIC_ACQUIRE))
        return fresh;
    free(fresh);
    return a;
}

/* Add the children's update blocks into supernode i's front.  Children go
 * in ascending order and each entry of a child's block adds into its own
 * position, so every entry receives the same additions in the same order
 * as a sequential np.add.at over the children's blocks.  A grouped parent
 * reads its whole arena through its cached map (positions in [P | R | C];
 * Cholesky's R is scratch nothing reads, so those adds are dropped); a
 * larger parent splits each child's sorted positions at its first update
 * row on the fly.  Consumed blocks are freed. */
static void extend_add(repro_job *job, int64_t i, int64_t k, int64_t m,
                       double *P, double *R, double *C)
{
    const repro_ctx *c = job->ctx;
    int64_t size = k + m, len_p = size * k, len_pr = len_p + k * m;
    if (c->arena_len[i]) {
        const int64_t *map = c->ea + c->ea_off[i];
        double *arena = job->arena[i];
        for (int64_t j = 0; j < c->arena_len[i]; j++) {
            int64_t pos = map[j];
            if (pos < len_p)
                P[pos] += arena[j];
            else if (pos >= len_pr)
                C[pos - len_pr] += arena[j];
            else if (job->lu)
                R[pos - len_p] += arena[j];
        }
        free(arena);
        job->arena[i] = NULL;
        return;
    }
    for (int64_t q = c->kid_off[i]; q < c->kid_off[i + 1]; q++) {
        int64_t kid = c->kids[q], mc = c->layout[7 * kid + 1], s = 0;
        const int64_t *pos = c->cm + c->cm_off[kid];
        double *u = job->update[kid];
        while (s < mc && pos[s] < k)
            s++;
        for (int64_t a = 0; a < mc; a++)
            for (int64_t b = 0; b < s; b++)
                P[pos[a] * k + pos[b]] += u[a * mc + b];
        if (job->lu && m)
            for (int64_t a = 0; a < s; a++)
                for (int64_t b = s; b < mc; b++)
                    R[pos[a] * m + pos[b] - k] += u[a * mc + b];
        for (int64_t a = s; a < mc; a++)
            for (int64_t b = s; b < mc; b++)
                C[(pos[a] - k) * m + pos[b] - k] += u[a * mc + b];
        free(u);
        job->update[kid] = NULL;
    }
}

/* Run scheduler task t: extend-add, factor and pass up every supernode of
 * it, in ascending order.  Returns 0, or a status code with st filled. */
int repro_run_task(repro_job *job, int64_t t, repro_status *st)
{
    const repro_ctx *c = job->ctx;
    st->code = 0;
    for (int64_t i = c->task_bounds[t]; i < c->task_bounds[t + 1]; i++) {
        const int64_t *l = c->layout + 7 * i;
        int64_t k = l[0], m = l[1], at = l[5];
        double *P = job->buf + l[2], *R = job->buf + l[3], *C = NULL;
        st->sn = i;
        if (m) {
            if (at >= 0) {
                double *arena = get_arena(job, l[6]);
                if (!arena)
                    return fail(st, REPRO_NO_MEMORY, 0, 0.0);
                C = arena + at;
            } else {
                C = calloc(m * m, sizeof(double));
                if (!C)
                    return fail(st, REPRO_NO_MEMORY, 0, 0.0);
                job->update[i] = C;
            }
        }
        if (c->kid_off[i] < c->kid_off[i + 1])
            extend_add(job, i, k, m, P, R, C);
        int rc = job->lu
            ? lu_front(P, R, C, k, m, job->block, job->perturb,
                       &job->bumped[i], st)
            : cholesky_front(P, C, k, m, job->block, st);
        if (rc)
            return rc;
    }
    return 0;
}

/* -- the supernodal solve ------------------------------------------------- */

/* Solve L U X = Y in place on y, a C-ordered n x nrhs panel, over the
 * factor buffer buf: U = L^T for Cholesky; for LU, L has a unit diagonal
 * and U11 is the upper triangle of the pivot block, U12 the pivot rows R.
 * A supernode's pivot rows are a contiguous row band of y, so every
 * triangular solve runs on y in place; update rows go through a gather.
 * Returns 0, or REPRO_NO_MEMORY. */
int repro_solve(const repro_ctx *c, const double *buf, double *y,
                int64_t nrhs, int lu)
{
    if (nrhs == 0 || c->n_sn == 0)
        return 0;
    int nr = (int)nrhs;
    int64_t wide = c->max_m > c->max_k ? c->max_m : c->max_k;
    double *g = malloc((size_t)(c->max_m + wide) * nrhs * sizeof(double) + 1);
    if (!g)
        return REPRO_NO_MEMORY;
    double *t = g + c->max_m * nrhs;
    /* Forward: L Y = B, supernodes in postorder. */
    for (int64_t i = 0; i < c->n_sn; i++) {
        const int64_t *l = c->layout + 7 * i;
        int64_t k = l[0], m = l[1];
        int ik = (int)k, im = (int)m;
        double *P = (double *)buf + l[2], *ys = y + c->first[i] * nrhs;
        const int64_t *rows = c->rows + c->row_off[i] + k;
        repro_blas.dtrsm(&R_, &U_, &N_, lu ? &U_ : &N_, &nr, &ik, &ONE, P,
                         &ik, ys, &nr);
        if (!m)
            continue;
        if (nr == 1)
            repro_blas.dgemv(&T_, &ik, &im, &ONE, P + k * k, &ik, ys, &INC,
                             &ZERO, t, &INC);
        else
            repro_blas.dgemm(&N_, &N_, &nr, &im, &ik, &ONE, ys, &nr,
                             P + k * k, &ik, &ZERO, t, &nr);
        for (int64_t j = 0; j < m; j++) {
            double *yr = y + rows[j] * nrhs;
            const double *tj = t + j * nrhs;
            for (int64_t q = 0; q < nrhs; q++)
                yr[q] -= tj[q];
        }
    }
    /* Backward: U X = Y, supernodes in reverse. */
    for (int64_t i = c->n_sn - 1; i >= 0; i--) {
        const int64_t *l = c->layout + 7 * i;
        int64_t k = l[0], m = l[1];
        int ik = (int)k, im = (int)m;
        double *P = (double *)buf + l[2], *Rb = (double *)buf + l[3];
        double *ys = y + c->first[i] * nrhs;
        const int64_t *rows = c->rows + c->row_off[i] + k;
        if (m) {
            for (int64_t j = 0; j < m; j++) {
                const double *yr = y + rows[j] * nrhs;
                for (int64_t q = 0; q < nrhs; q++)
                    g[j * nrhs + q] = yr[q];
            }
            if (lu && nr == 1)
                repro_blas.dgemv(&T_, &im, &ik, &ONE, Rb, &im, g, &INC,
                                 &ZERO, t, &INC);
            else if (lu)
                repro_blas.dgemm(&N_, &N_, &nr, &ik, &im, &ONE, g, &nr, Rb,
                                 &im, &ZERO, t, &nr);
            else if (nr == 1)
                repro_blas.dgemv(&N_, &ik, &im, &ONE, P + k * k, &ik, g,
                                 &INC, &ZERO, t, &INC);
            else
                repro_blas.dgemm(&N_, &T_, &nr, &ik, &im, &ONE, g, &nr,
                                 P + k * k, &ik, &ZERO, t, &nr);
            for (int64_t q = 0; q < k * nrhs; q++)
                ys[q] -= t[q];
        }
        repro_blas.dtrsm(&R_, lu ? &L_ : &U_, lu ? &N_ : &T_, &N_, &nr, &ik,
                         &ONE, P, &ik, ys, &nr);
    }
    free(g);
    return 0;
}
