/* The compiled core: the numeric engine's supernode loop, the
 * approximate minimum degree ordering (repro_amd), and the symbolic
 * analysis's walks and static pivoting (the last section).
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
#include <string.h>

#include "_core.h"

repro_blas_t repro_blas;

struct repro_job {
    const repro_ctx *ctx;
    double *buf;         /* the factor buffer: every P | R */
    int64_t *bumped;     /* per supernode: pivots the LU bump replaced */
    int64_t block;
    double perturb;
    int lu;
    double **update;     /* per supernode: its C, until its parent adds it */
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
    job->update = calloc(ctx->n_sn ? ctx->n_sn : 1, sizeof(double *));
    if (!job->update) {
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
        n += job->update[i] != NULL;
    return n;
}

void repro_job_free(repro_job *job)
{
    for (int64_t i = 0; i < job->ctx->n_sn; i++)
        free(job->update[i]);
    free(job->update);
    free(job);
}

/* Add the children's update blocks into supernode i's front.  Children go
 * in ascending order and each entry of a child's block adds into its own
 * position, so every entry receives the same additions in the same order
 * as a sequential np.add.at over the children's blocks.  Each child's
 * sorted positions split at the parent's first update row: entry (a, b)
 * goes to P when column pos[b] is a pivot, else to R (LU) when row pos[a]
 * is one, else to C.  Consumed blocks are freed. */
static void extend_add(repro_job *job, int64_t i, int64_t k, int64_t m,
                       double *P, double *R, double *C)
{
    const repro_ctx *c = job->ctx;
    for (int64_t q = c->kid_off[i]; q < c->kid_off[i + 1]; q++) {
        int64_t kid = c->kids[q], mc = c->layout[5 * kid + 1], s = 0;
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
        const int64_t *l = c->layout + 5 * i;
        int64_t k = l[0], m = l[1];
        double *P = job->buf + l[2], *R = job->buf + l[3], *C = NULL;
        st->sn = i;
        if (m) {
            C = calloc(m * m, sizeof(double));
            if (!C)
                return fail(st, REPRO_NO_MEMORY, 0, 0.0);
            job->update[i] = C;
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
        const int64_t *l = c->layout + 5 * i;
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
        const int64_t *l = c->layout + 5 * i;
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

/* -- approximate minimum degree ------------------------------------------ */

/* The quotient-graph AMD repro.ordering.minimum_degree calls (the
 * algorithm and its measurements: docs/ORDERING.md, "amd").  Every tie
 * rule is part of the output, so each has a structure that keeps it:
 *  - degree buckets are doubly linked lists pushed and popped at the
 *    head: the pivot is the most recently (re)inserted vertex of least
 *    degree, and any vertex unlinks in O(1);
 *  - L_p is A_p, then each absorbed element's list, a vertex kept at its
 *    first occurrence (stamped with p);
 *  - supervariables: a variable's signature (E_i, p, A_i) is compared
 *    word for word through a per-pivot hash table, and the first variable
 *    with a signature keeps it;
 *  - members are linked lists headed by their vertex, concatenated in
 *    place, so they stay in merge order;
 *  - a variable's E_i then A_i, and an element's L_e, are ranges of one
 *    pool, compacted when it fills.
 * All of it is workspace of one call: orderings run concurrently. */

typedef struct {
    int64_t n;
    int64_t *pool, used, cap;
    int64_t *vstart, *vcap, *elen, *alen;  /* variable i: E_i, then A_i */
    int64_t *estart, *evlen;               /* element e: L_e */
    int64_t *weight;  /* supervariable size; 0 = dead, < 0 = in L_p */
} amd_lists;

typedef struct {
    amd_lists l;
    int64_t *esize;   /* |L_e| in original variables */
    int64_t *degree, *w;  /* w[e] = |L_e \ L_p| for the elements p touched */
    int64_t *bhead, *bnext, *bprev;  /* degree buckets */
    int64_t *mtail, *mnext, *msize;  /* members of v: v, mnext[v], ... */
    int64_t *parent;  /* assembly tree: the pivot that absorbed e */
    int64_t *pivots, npiv;
    int64_t *lpmark, *emark, *lp, *touched, *hash, *htab, *tmp;
} amd_ws;

/* Room for k more words at the end of the pool.  When it is full, the
 * live lists (variables of nonzero weight, elements with a list) move to
 * a fresh pool, twice their size if they fill more than half of it. */
static int amd_reserve(amd_lists *l, int64_t k)
{
    if (l->used + k <= l->cap)
        return 0;
    int64_t live = k;
    for (int64_t v = 0; v < l->n; v++)
        live += (l->weight[v] ? l->elen[v] + l->alen[v] : 0) + l->evlen[v];
    int64_t cap = 2 * live > l->cap ? 2 * live : l->cap;
    int64_t *pool = malloc((size_t)cap * sizeof(int64_t)), used = 0;
    if (!pool)
        return REPRO_NO_MEMORY;
    for (int64_t v = 0; v < l->n; v++) {
        if (l->weight[v]) {
            int64_t len = l->elen[v] + l->alen[v];
            memcpy(pool + used, l->pool + l->vstart[v],
                   (size_t)len * sizeof(int64_t));
            l->vstart[v] = used;
            l->vcap[v] = len;
            used += len;
        }
        if (l->evlen[v]) {
            memcpy(pool + used, l->pool + l->estart[v],
                   (size_t)l->evlen[v] * sizeof(int64_t));
            l->estart[v] = used;
            used += l->evlen[v];
        }
    }
    free(l->pool);
    l->pool = pool;
    l->used = used;
    l->cap = cap;
    return 0;
}

static void bucket_push(amd_ws *a, int64_t d, int64_t v)
{
    a->bprev[v] = -1;
    a->bnext[v] = a->bhead[d];
    if (a->bhead[d] >= 0)
        a->bprev[a->bhead[d]] = v;
    a->bhead[d] = v;
}

static void bucket_unlink(amd_ws *a, int64_t d, int64_t v)
{
    if (a->bprev[v] >= 0)
        a->bnext[a->bprev[v]] = a->bnext[v];
    else
        a->bhead[d] = a->bnext[v];
    if (a->bnext[v] >= 0)
        a->bprev[a->bnext[v]] = a->bprev[v];
}

/* members[to] += members[from] */
static void merge_members(amd_ws *a, int64_t to, int64_t from)
{
    a->mnext[a->mtail[to]] = from;
    a->mtail[to] = a->mtail[from];
    a->msize[to] += a->msize[from];
}

/* Eliminate until nothing remains or the dense tail starts (the minimum
 * degree above half of what remains, with more than 32 left). */
static int amd_eliminate(amd_ws *a)
{
    amd_lists *l = &a->l;
    int64_t n = l->n, *weight = l->weight, *tmp = a->tmp;
    int64_t remaining = n, mindeg = 0;
    while (remaining) {
        while (mindeg <= n && a->bhead[mindeg] < 0)
            mindeg++;
        if (mindeg > n)
            return REPRO_BAD_ORDER;
        if (remaining > 32 && 2 * mindeg > remaining)
            break;
        int64_t p = a->bhead[mindeg];
        bucket_unlink(a, mindeg, p);
        a->pivots[a->npiv++] = p;
        remaining -= weight[p];
        weight[p] = 0;

        /* L_p: the live variables of A_p and of each L_e, e in E_p, in
         * order of first occurrence; E_p is absorbed into p. */
        int64_t nlp = 0;
        const int64_t *Ep = l->pool + l->vstart[p], *Ap = Ep + l->elen[p];
        for (int64_t q = -1; q < l->elen[p]; q++) {
            const int64_t *vars = q < 0 ? Ap : l->pool + l->estart[Ep[q]];
            int64_t len = q < 0 ? l->alen[p] : l->evlen[Ep[q]];
            for (int64_t r = 0; r < len; r++) {
                int64_t i = vars[r];
                if (weight[i] > 0 && a->lpmark[i] != p) {
                    a->lpmark[i] = p;
                    a->lp[nlp++] = i;
                }
            }
        }
        for (int64_t q = 0; q < l->elen[p]; q++) {
            l->evlen[Ep[q]] = 0;
            a->esize[Ep[q]] = 0;
            a->parent[Ep[q]] = p;
        }

        /* Counting pass: w[e] = |L_e| less what lies in L_p; an element
         * L_p covers is absorbed too. */
        int64_t ntouched = 0, pivot_size = 0;
        for (int64_t k = 0; k < nlp; k++) {
            int64_t i = a->lp[k], wi = weight[i];
            const int64_t *Ei = l->pool + l->vstart[i];
            weight[i] = -wi;
            pivot_size += wi;
            bucket_unlink(a, a->degree[i], i);
            for (int64_t q = 0; q < l->elen[i]; q++) {
                int64_t e = Ei[q];
                if (a->emark[e] != p) {
                    a->emark[e] = p;
                    a->w[e] = a->esize[e];
                    a->touched[ntouched++] = e;
                }
                a->w[e] -= wi;
            }
        }
        for (int64_t k = 0; k < ntouched; k++)
            if (!a->w[a->touched[k]]) {
                l->evlen[a->touched[k]] = 0;
                a->parent[a->touched[k]] = p;
            }

        /* Degree update, absorption, mass elimination, supervariables.
         * A survivor's new list (E_i, p, A_i) is built in tmp, which is
         * also its signature. */
        int64_t H = 2, nsurv = 0;
        while (H < 2 * nlp)
            H *= 2;
        for (int64_t h = 0; h < H; h++)
            a->htab[h] = -1;
        for (int64_t k = 0; k < nlp; k++) {
            int64_t i = a->lp[k], ne = 0, na = 0;
            const int64_t *Ei = l->pool + l->vstart[i], *Ai = Ei + l->elen[i];
            for (int64_t q = 0; q < l->elen[i]; q++)
                if (a->w[Ei[q]] > 0)
                    tmp[ne++] = Ei[q];
            int64_t *nbrs = tmp + ne + 1;
            for (int64_t q = 0; q < l->alen[i]; q++)
                if (weight[Ai[q]] > 0)
                    nbrs[na++] = Ai[q];
            if (!ne && !na) {
                merge_members(a, p, i);
                remaining += weight[i];
                pivot_size += weight[i];
                weight[i] = 0;
                continue;
            }
            tmp[ne] = p;
            int64_t len = ne + 1 + na, twin = -1;
            uint64_t hash = 14695981039346656037u;
            for (int64_t q = 0; q < len; q++)
                hash = (hash ^ (uint64_t)tmp[q]) * 1099511628211u;
            int64_t slot = (int64_t)(hash & (uint64_t)(H - 1));
            for (; a->htab[slot] >= 0; slot = (slot + 1) & (H - 1)) {
                int64_t t = a->htab[slot];
                if (a->hash[t] == (int64_t)hash && l->elen[t] == ne + 1
                    && l->alen[t] == na
                    && !memcmp(l->pool + l->vstart[t], tmp,
                               (size_t)len * sizeof(int64_t))) {
                    twin = t;
                    break;
                }
            }
            if (twin >= 0) {
                merge_members(a, twin, i);
                weight[twin] += weight[i];
                weight[i] = 0;
                continue;
            }
            a->htab[slot] = i;
            a->hash[i] = (int64_t)hash;
            int64_t d = 0;
            for (int64_t q = 0; q < ne; q++)
                d += a->w[tmp[q]];
            for (int64_t q = 0; q < na; q++)
                d += weight[nbrs[q]];
            if (d < a->degree[i])
                a->degree[i] = d;
            if (len > l->vcap[i]) {
                if (amd_reserve(l, len))
                    return REPRO_NO_MEMORY;
                l->vstart[i] = l->used;
                l->vcap[i] = len;
                l->used += len;
            }
            memcpy(l->pool + l->vstart[i], tmp, (size_t)len * sizeof(int64_t));
            l->elen[i] = ne + 1;
            l->alen[i] = na;
            a->lp[nsurv++] = i;
        }

        /* p becomes the element L_p = its survivors. */
        if (amd_reserve(l, nsurv))
            return REPRO_NO_MEMORY;
        memcpy(l->pool + l->used, a->lp, (size_t)nsurv * sizeof(int64_t));
        l->estart[p] = l->used;
        l->evlen[p] = nsurv;
        l->used += nsurv;
        a->esize[p] = pivot_size;
        for (int64_t k = 0; k < nsurv; k++) {
            int64_t i = a->lp[k], wi = weight[i] = -weight[i];
            int64_t d = a->degree[i] + pivot_size - wi;
            if (d > remaining - wi)
                d = remaining - wi;
            if (d < 0 || d > n)
                return REPRO_BAD_ORDER;
            a->degree[i] = d;
            bucket_push(a, d, i);
            if (d < mindeg)
                mindeg = d;
        }
    }
    return 0;
}

/* A sort record: (a, b, c) ascending, then the index k. */
typedef struct {
    int64_t a, b, c, k;
} amd_key;

static int amd_key_cmp(const void *x, const void *y)
{
    const amd_key *s = x, *t = y;
    if (s->a != t->a)
        return s->a < t->a ? -1 : 1;
    if (s->b != t->b)
        return s->b < t->b ? -1 : 1;
    if (s->c != t->c)
        return s->c < t->c ? -1 : 1;
    return (s->k > t->k) - (s->k < t->k);
}

/* Append the members of v to perm; returns the new count (which may pass
 * n: only the first n are stored). */
static int64_t emit_members(const amd_ws *a, int64_t v, int64_t *perm,
                            int64_t count)
{
    int64_t n = a->l.n;
    for (; v >= 0 && count <= n; v = a->mnext[v], count++)
        if (count < n)
            perm[count] = v;
    return count;
}

/* The pivots in a postorder of their assembly tree -- roots ascending,
 * siblings by (subtree size <= foldable, -size if so, else size), then
 * index -- and after them the dense tail by (degree, index).  Returns
 * how many vertices that orders. */
static int64_t amd_emit(amd_ws *a, int64_t foldable, int64_t *perm,
                        amd_key *keys, int64_t *tree)
{
    int64_t n = a->l.n, np = a->npiv, *rank = a->lpmark, count = 0;
    int64_t *cols = tree + n, *first = cols + n, *stack = first + n;
    for (int64_t v = 0; v < n; v++)
        rank[v] = -1;
    for (int64_t k = 0; k < np; k++)
        rank[a->pivots[k]] = k;
    for (int64_t k = 0; k < np; k++) {
        int64_t up = a->parent[a->pivots[k]];
        tree[k] = up >= 0 ? rank[up] : -1;
        cols[k] = a->msize[a->pivots[k]];
    }
    for (int64_t k = 0; k < np; k++)
        if (tree[k] >= 0)
            cols[tree[k]] += cols[k];
    int64_t nk = 0;
    for (int64_t k = 0; k < np; k++)
        if (tree[k] >= 0) {
            int64_t small = cols[k] <= foldable;
            keys[nk++] = (amd_key){tree[k], small, small ? -cols[k] : cols[k],
                                   k};
        }
    qsort(keys, (size_t)nk, sizeof(amd_key), amd_key_cmp);
    /* first[v]: v's next child, keys[first[v]] while its .a is v. */
    for (int64_t u = 0, j = 0; u < np; u++) {
        first[u] = j;
        while (j < nk && keys[j].a == u)
            j++;
    }
    for (int64_t root = 0; root < np; root++) {
        if (tree[root] >= 0)
            continue;
        int64_t top = 0;
        stack[top++] = root;
        while (top) {
            int64_t v = stack[top - 1];
            if (first[v] < nk && keys[first[v]].a == v)
                stack[top++] = keys[first[v]++].k;
            else {
                top--;
                count = emit_members(a, a->pivots[v], perm, count);
            }
        }
    }
    int64_t nt = 0;
    for (int64_t v = 0; v < n; v++)
        if (a->l.weight[v] > 0)
            keys[nt++] = (amd_key){a->degree[v], 0, 0, v};
    qsort(keys, (size_t)nt, sizeof(amd_key), amd_key_cmp);
    for (int64_t j = 0; j < nt; j++)
        count = emit_members(a, keys[j].k, perm, count);
    return count;
}

int repro_amd(int64_t n, const int64_t *indptr, const int64_t *indices,
              int64_t foldable, int64_t *perm, repro_status *st)
{
    *st = (repro_status){0, -1, 0, 0.0};
    int64_t H = 2;
    while (H < 2 * n)
        H *= 2;
    /* 23 arrays of n + 1, tmp (2n + 2) and htab (H); after the
     * elimination, amd_emit's tree, cols, first and stack (4n) reuse
     * the first of them. */
    size_t words = 25 * (size_t)(n + 1) + (size_t)H;
    int64_t *ws = malloc(words * sizeof(int64_t));
    amd_key *keys = malloc((size_t)(n + 1) * sizeof(amd_key));
    amd_ws a = {.l = {.n = n, .cap = indptr[n] + n + 1}};
    a.l.pool = malloc((size_t)a.l.cap * sizeof(int64_t));
    if (!ws || !keys || !a.l.pool) {
        free(ws);
        free(keys);
        free(a.l.pool);
        st->code = REPRO_NO_MEMORY;
        return REPRO_NO_MEMORY;
    }
    int64_t *at = ws;
    int64_t **arrays[] = {
        &a.l.vstart, &a.l.vcap, &a.l.elen, &a.l.alen, &a.l.estart,
        &a.l.evlen, &a.l.weight, &a.esize, &a.degree, &a.w, &a.bhead,
        &a.bnext, &a.bprev, &a.mtail, &a.mnext, &a.msize, &a.parent,
        &a.pivots, &a.lpmark, &a.emark, &a.lp, &a.touched, &a.hash};
    for (size_t j = 0; j < sizeof(arrays) / sizeof(arrays[0]); j++, at += n + 1)
        *arrays[j] = at;
    a.tmp = at;
    a.htab = at + 2 * (n + 1);

    memcpy(a.l.pool, indices, (size_t)indptr[n] * sizeof(int64_t));
    a.l.used = indptr[n];
    a.bhead[n] = -1;
    for (int64_t v = 0; v < n; v++) {
        a.l.vstart[v] = indptr[v];
        a.l.vcap[v] = a.l.alen[v] = a.degree[v] = indptr[v + 1] - indptr[v];
        a.l.elen[v] = a.l.estart[v] = a.l.evlen[v] = a.esize[v] = a.w[v] = 0;
        a.l.weight[v] = a.msize[v] = 1;
        a.mtail[v] = v;
        a.bhead[v] = a.mnext[v] = a.parent[v] = -1;
        a.lpmark[v] = a.emark[v] = -1;
    }
    int rc = 0;
    for (int64_t v = 0; v < n && !rc; v++) {
        if (a.degree[v] > n)
            rc = REPRO_BAD_ORDER;
        else
            bucket_push(&a, a.degree[v], v);
    }
    if (!rc)
        rc = amd_eliminate(&a);
    free(a.l.pool);
    if (!rc) {
        st->pos = amd_emit(&a, foldable, perm, keys, ws);
        if (st->pos != n)
            rc = REPRO_BAD_ORDER;
    }
    free(keys);
    free(ws);
    st->code = rc;
    return rc;
}

/* -- the symbolic analysis and static pivoting --------------------------- */

/* The walks repro.symbolic and repro.ordering.pivoting call, each the
 * algorithm its Python wrapper documents with the same tie rules, so
 * every array equals the frozen Python one (tests/golden_oracles.py):
 * etree paths compressed to the current column, children ascending,
 * merge candidates in list order, a column's rows by stable descending
 * magnitude, augmenting rows ascending.  Workspace is per call. */

void repro_free(void *p)
{
    free(p);
}

int repro_etree(int64_t n, const int64_t *indptr, const int64_t *indices,
                int64_t *parent)
{
    int64_t *ancestor = malloc((size_t)(n + 1) * sizeof(int64_t));
    if (!ancestor)
        return REPRO_NO_MEMORY;
    for (int64_t j = 0; j < n; j++)
        parent[j] = ancestor[j] = -1;
    for (int64_t j = 0; j < n; j++)
        for (int64_t p = indptr[j]; p < indptr[j + 1]; p++) {
            int64_t i = indices[p];
            if (i >= j)
                break;  /* rows ascending: the rest is the lower triangle */
            for (;;) {  /* i up to its subtree's root, compressing */
                int64_t next = ancestor[i];
                ancestor[i] = j;
                if (next == -1) {
                    parent[i] = j;
                    break;
                }
                if (next == j)
                    break;
                i = next;
            }
        }
    free(ancestor);
    return 0;
}

void repro_etree_heights(int64_t n, const int64_t *parent, int64_t *heights)
{
    for (int64_t j = 0; j < n; j++)
        heights[j] = 0;
    for (int64_t j = 0; j < n; j++)  /* children before parents */
        if (parent[j] != -1 && heights[parent[j]] <= heights[j])
            heights[parent[j]] = heights[j] + 1;
}

int repro_postorder(int64_t n, const int64_t *parent, int64_t *post)
{
    /* kids[kptr[v]:kptr[v + 1]]: v's children, ascending; next[v] the
     * next one to visit. */
    int64_t *kptr = calloc((size_t)(4 * n + 2), sizeof(int64_t));
    if (!kptr)
        return REPRO_NO_MEMORY;
    int64_t *kids = kptr + n + 1, *next = kids + n, *stack = next + n;
    int64_t count = 0;
    for (int64_t j = 0; j < n; j++)
        if (parent[j] >= 0)
            kptr[parent[j] + 1]++;
    for (int64_t v = 0; v < n; v++)
        next[v] = kptr[v + 1] += kptr[v];
    for (int64_t j = n - 1; j >= 0; j--)
        if (parent[j] >= 0)
            kids[--next[parent[j]]] = j;
    for (int64_t root = 0; root < n; root++) {
        if (parent[root] >= 0)
            continue;
        int64_t top = 0;
        stack[top++] = root;
        while (top) {
            int64_t v = stack[top - 1];
            if (next[v] < kptr[v + 1])
                stack[top++] = kids[next[v]++];
            else
                post[count++] = stack[--top];
        }
    }
    free(kptr);
    return count == n ? 0 : REPRO_BAD_ORDER;
}

int repro_column_counts(int64_t n, const int64_t *indptr,
                        const int64_t *indices, const int64_t *parent,
                        const int64_t *post, int64_t *counts)
{
    int64_t *first = malloc((size_t)(4 * n + 1) * sizeof(int64_t));
    if (!first)
        return REPRO_NO_MEMORY;
    int64_t *max_first = first + n, *prev_leaf = max_first + n;
    int64_t *ancestor = prev_leaf + n, *delta = counts;
    /* first[j]: postorder rank of j's first descendant (unranked at its
     * own turn = a leaf, which owns its diagonal). */
    for (int64_t j = 0; j < n; j++) {
        first[j] = max_first[j] = prev_leaf[j] = -1;
        delta[j] = 0;
        ancestor[j] = j;
    }
    for (int64_t rank = 0; rank < n; rank++) {
        int64_t j = post ? post[rank] : rank;
        if (first[j] < 0)
            delta[j] = 1;
        for (; j != -1 && first[j] < 0; j = parent[j])
            first[j] = rank;
    }
    for (int64_t rank = 0; rank < n; rank++) {
        int64_t j = post ? post[rank] : rank, up = parent[j];
        if (up != -1)
            delta[up]--;  /* j's own row is not a row of its parent */
        for (int64_t p = indptr[j]; p < indptr[j + 1]; p++) {
            int64_t i = indices[p];
            if (i <= j || first[j] <= max_first[i])
                continue;  /* not lower, or j is no leaf of row i's subtree */
            max_first[i] = first[j];
            delta[j]++;
            int64_t q = prev_leaf[i];
            prev_leaf[i] = j;
            if (q >= 0) {  /* the two leaves' least common ancestor */
                while (q != ancestor[q])
                    q = ancestor[q] = ancestor[ancestor[q]];
                delta[q]--;
            }
        }
        if (up != -1)
            ancestor[j] = up;
    }
    for (int64_t rank = 0; rank < n; rank++) {
        int64_t j = post ? post[rank] : rank;
        if (parent[j] != -1)
            delta[parent[j]] += delta[j];
    }
    free(first);
    return 0;
}

static int64_t front_entries(int64_t size)
{
    return size * (size + 1) / 2;
}

int repro_merge(int64_t nsn, const int64_t *first, const int64_t *last,
                const int64_t *size, const int64_t *sn_parent,
                double relax_small, double relax_ratio, double force_small,
                int64_t *keep, int64_t *keep_first, int64_t *nkeep)
{
    int64_t *lo = malloc((size_t)(4 * nsn + 1) * sizeof(int64_t));
    if (!lo)
        return REPRO_NO_MEMORY;
    int64_t *sz = lo + nsn, *merged = sz + nsn, *cand = merged + nsn;
    const int64_t *hi = last;
    int64_t ncand = 0;
    for (int64_t k = 0; k < nsn; k++) {
        lo[k] = first[k];
        sz[k] = size[k];
        merged[k] = k;
        if (sn_parent[k] >= 0)
            cand[ncand++] = k;
    }
    for (int changed = 1; changed;) {
        changed = 0;
        for (int64_t c = 0; c < ncand; c++) {
            int64_t k = cand[c], root = sn_parent[k];
            while (merged[root] != root)  /* find, halving the path */
                root = merged[root] = merged[merged[root]];
            if (hi[k] + 1 != lo[root])
                continue;
            int64_t width = hi[k] - lo[k] + 1, front = width + sz[root];
            int forced = (double)front <= force_small;
            if (!forced && (double)width > relax_small)
                continue;
            int64_t exact = front_entries(sz[k]) + front_entries(sz[root]);
            int64_t relaxed = front_entries(front);
            /* Python's true division of exact integers (below 2^53). */
            if (!forced && relaxed > 0
                && (double)(relaxed - exact) / (double)relaxed > relax_ratio)
                continue;
            merged[k] = root;
            lo[root] = lo[k];
            sz[root] = front;
            changed = 1;
        }
        int64_t kept = 0;
        for (int64_t c = 0; c < ncand; c++)
            if (merged[cand[c]] == cand[c])
                cand[kept++] = cand[c];
        ncand = kept;
    }
    *nkeep = 0;
    for (int64_t k = 0; k < nsn; k++)
        if (merged[k] == k) {
            keep[*nkeep] = k;
            keep_first[(*nkeep)++] = lo[k];
        }
    free(lo);
    return 0;
}

static int int64_cmp(const void *x, const void *y)
{
    int64_t a = *(const int64_t *)x, b = *(const int64_t *)y;
    return (a > b) - (a < b);
}

int repro_sn_rows(int64_t n, const int64_t *indptr, const int64_t *indices,
                  int64_t nsn, const int64_t *first, const int64_t *last,
                  const int64_t *sn_parent, int64_t *row_off,
                  int64_t **rows_out)
{
    /* mark[r] == k: r is in supernode k's union; kids[kptr[k]:...]: the
     * children of k, which precede it. */
    int64_t *mark = malloc((size_t)(n + 3 * nsn + 2) * sizeof(int64_t));
    int64_t cap = indptr[n] + n + 1, used = 0;
    int64_t *rows = malloc((size_t)cap * sizeof(int64_t));
    *rows_out = NULL;
    if (!mark || !rows) {
        free(mark);
        free(rows);
        return REPRO_NO_MEMORY;
    }
    int64_t *kptr = mark + n, *kids = kptr + nsn + 1, *next = kids + nsn;
    for (int64_t r = 0; r < n; r++)
        mark[r] = -1;
    for (int64_t k = 0; k <= nsn; k++)
        kptr[k] = 0;
    for (int64_t c = 0; c < nsn; c++)
        if (sn_parent[c] > c)
            kptr[sn_parent[c] + 1]++;
    for (int64_t k = 0; k < nsn; k++)
        next[k] = kptr[k + 1] += kptr[k];
    for (int64_t c = nsn - 1; c >= 0; c--)
        if (sn_parent[c] > c)
            kids[--next[sn_parent[c]]] = c;
    row_off[0] = 0;
    for (int64_t k = 0; k < nsn; k++) {
        int64_t c0 = first[k], c1 = last[k];
        int64_t need = c1 - c0 + 1 + indptr[c1 + 1] - indptr[c0];
        for (int64_t q = kptr[k]; q < kptr[k + 1]; q++)
            need += row_off[kids[q] + 1] - row_off[kids[q]];
        if (used + need > cap) {
            int64_t *grown;
            cap = 2 * cap > used + need ? 2 * cap : used + need;
            grown = realloc(rows, (size_t)cap * sizeof(int64_t));
            if (!grown) {
                free(mark);
                free(rows);
                return REPRO_NO_MEMORY;
            }
            rows = grown;
        }
        for (int64_t c = c0; c <= c1; c++)
            rows[used++] = c;
        int64_t tail = used;
        /* Rows above c1: its columns' (one slice, they are contiguous),
         * then its children's tails. */
        for (int64_t p = indptr[c0]; p < indptr[c1 + 1]; p++) {
            int64_t r = indices[p];
            if (r > c1 && mark[r] != k) {
                mark[r] = k;
                rows[used++] = r;
            }
        }
        for (int64_t q = kptr[k]; q < kptr[k + 1]; q++) {
            int64_t c = kids[q];
            int64_t from = row_off[c] + last[c] - first[c] + 1;
            for (int64_t p = from; p < row_off[c + 1]; p++) {
                int64_t r = rows[p];
                if (r > c1 && mark[r] != k) {
                    mark[r] = k;
                    rows[used++] = r;
                }
            }
        }
        qsort(rows + tail, (size_t)(used - tail), sizeof(int64_t), int64_cmp);
        row_off[k + 1] = used;
    }
    free(mark);
    *rows_out = rows;
    return 0;
}

/* a goes before b: larger magnitude first, NaN last. */
static int mag_before(double a, double b)
{
    return !isnan(a) && (isnan(b) || a > b);
}

/* Stable sort of the entry positions pos[0..len) by mag_before (what
 * lexsort((-mag, cols)) gives within a column); tmp holds len / 2. */
static void mag_sort(int64_t *pos, int64_t *tmp, const double *mag,
                     int64_t len)
{
    if (len <= 16) {
        for (int64_t a = 1; a < len; a++) {
            int64_t p = pos[a], b = a;
            for (; b > 0 && mag_before(mag[p], mag[pos[b - 1]]); b--)
                pos[b] = pos[b - 1];
            pos[b] = p;
        }
        return;
    }
    int64_t h = len / 2, i = 0, j = h, out = 0;
    mag_sort(pos, tmp, mag, h);
    mag_sort(pos + h, tmp, mag, len - h);
    memcpy(tmp, pos, (size_t)h * sizeof(int64_t));
    while (i < h && j < len)
        pos[out++] = mag_before(mag[pos[j]], mag[tmp[i]]) ? pos[j++]
                                                         : tmp[i++];
    while (i < h)
        pos[out++] = tmp[i++];
}

int repro_static_pivot(int64_t n, const int64_t *indptr,
                       const int64_t *indices, const double *mag,
                       const int64_t *col_order, int64_t *match_col)
{
    int64_t nnz = indptr[n];
    /* by[indptr[j]:indptr[j + 1]]: column j's entry positions by
     * descending magnitude; then match_row, seen, and the search path
     * (its columns, their rows, each column's next entry). */
    int64_t *by = malloc((size_t)(nnz + nnz / 2 + 6 * n + 4)
                         * sizeof(int64_t));
    if (!by)
        return REPRO_NO_MEMORY;
    int64_t *tmp = by + nnz, *match_row = tmp + nnz / 2 + 1;
    int64_t *seen = match_row + n, *path_cols = seen + n;
    int64_t *path_rows = path_cols + n + 1, *cursor = path_rows + n + 1;
    int rc = 0;
    for (int64_t j = 0; j < n; j++) {
        for (int64_t p = indptr[j]; p < indptr[j + 1]; p++)
            by[p] = p;
        mag_sort(by + indptr[j], tmp, mag, indptr[j + 1] - indptr[j]);
        match_col[j] = match_row[j] = seen[j] = -1;
    }

    /* Greedy: each column takes its largest row not yet taken. */
    for (int64_t c = 0; c < n; c++) {
        int64_t j = col_order[c];
        for (int64_t p = indptr[j]; p < indptr[j + 1]; p++) {
            int64_t i = indices[by[p]];
            if (match_row[i] < 0) {
                match_row[i] = j;
                match_col[j] = i;
                break;
            }
        }
    }

    /* Augmentation: a depth-first search per unmatched column, rows
     * ascending; row path_rows[d] is matched to path_cols[d + 1]. */
    for (int64_t root = 0; root < n && !rc; root++) {
        if (match_col[root] >= 0)
            continue;
        int64_t depth = 1, nrows = 0;
        path_cols[0] = root;
        cursor[0] = indptr[root];
        while (depth) {
            int64_t k = cursor[depth - 1], end = indptr[path_cols[depth - 1] + 1];
            while (k < end && seen[indices[k]] == root)
                k++;
            if (k == end) {  /* column exhausted: back up to its parent row */
                depth--;
                if (nrows)
                    nrows--;
                continue;
            }
            int64_t i = indices[k];
            seen[i] = root;
            cursor[depth - 1] = k + 1;
            path_rows[nrows++] = i;
            if (match_row[i] < 0)
                break;
            path_cols[depth] = match_row[i];
            cursor[depth++] = indptr[match_row[i]];
        }
        if (!depth)
            rc = REPRO_SINGULAR;
        for (int64_t d = 0; d < depth; d++) {
            match_row[path_rows[d]] = path_cols[d];
            match_col[path_cols[d]] = path_rows[d];
        }
    }
    free(by);
    return rc;
}

int repro_pattern_graph(int64_t n, const int64_t *indptr,
                        const int64_t *indices, int64_t *gptr, int64_t *gind)
{
    /* The transpose's off-diagonal lists, each ascending (columns are
     * read in order): trows[tptr[v]:tptr[v + 1]] = {j != v : A[v, j]}. */
    int64_t *tptr = calloc((size_t)(2 * n + indptr[n] + 1), sizeof(int64_t));
    if (!tptr)
        return REPRO_NO_MEMORY;
    int64_t *next = tptr + n + 1, *trows = next + n, used = 0;
    for (int64_t j = 0; j < n; j++)
        for (int64_t p = indptr[j]; p < indptr[j + 1]; p++)
            if (indices[p] != j)
                tptr[indices[p] + 1]++;
    for (int64_t v = 0; v < n; v++) {
        tptr[v + 1] += tptr[v];
        next[v] = tptr[v];
    }
    for (int64_t j = 0; j < n; j++)
        for (int64_t p = indptr[j]; p < indptr[j + 1]; p++)
            if (indices[p] != j)
                trows[next[indices[p]]++] = j;
    /* v's neighbours: column v merged with row v, both ascending. */
    gptr[0] = 0;
    for (int64_t v = 0; v < n; v++) {
        int64_t a = indptr[v], a_end = indptr[v + 1];
        int64_t b = tptr[v], b_end = tptr[v + 1];
        for (;;) {
            if (a < a_end && indices[a] == v)
                a++;
            if (a == a_end && b == b_end)
                break;
            int64_t x = a < a_end ? indices[a] : INT64_MAX;
            int64_t y = b < b_end ? trows[b] : INT64_MAX;
            gind[used++] = x < y ? x : y;
            a += x <= y;
            b += y <= x;
        }
        gptr[v + 1] = used;
    }
    free(tptr);
    return 0;
}
