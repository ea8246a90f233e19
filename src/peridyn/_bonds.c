/* The bond loop of forces.PDOperator.rates: each row of a view sums the
 * pairwise forces of its bonds in CSR order, then forms its rates.
 *
 * Every product is rounded before it is added (the loader compiles with
 * -ffp-contract=off) and every sum runs in a fixed order, so the result is
 * bit for bit the numpy formula's:
 *   linear law, with the bond factor q = sqrt(alpha / |xi|^3) xi:
 *     d = (u_j0 - u_i0) q0 + (u_j1 - u_i1) q1 [+ (u_j2 - u_i2) q2],
 *     d = d * 0.0 for a broken bond, and the force is d q;
 *   nonlinear law, with p = xi + eta and s = (|p| - |xi|) / |xi|:
 *     the force is ((coef s) / |p|) p, coef = alpha or alpha * 0.0.
 * A broken bond is multiplied by 0.0, never skipped, so NaN propagates.
 * A row's sums start from +0.0 and add its bonds in ascending order; the
 * rates are then ((sum * vol) + body) / rho and the velocity, or the
 * prescribed velocity and 0.0 at a constrained point.
 */

#include <math.h>
#include <stdint.h>

#define LINEAR 0
#define NONLINEAR 1

/* The force sums of point i over its bonds start .. stop - 1 into acc.
 * The table holds q as (dim, n_bonds) under the linear law, and xi as
 * (dim, n_bonds) followed by |xi| under the nonlinear law.  Returns the
 * lowest bond that collapsed (|p| < tol |xi|), or -1. */
static inline int64_t row_sums(int law, int dim, int64_t i, int64_t start,
                        int64_t stop, int64_t n_bonds,
                        const int32_t *neighbors, const uint8_t *mu,
                        const double *table, const double *y, double alpha,
                        double tol, double *acc)
{
    const double *u_i = y + i * 2 * dim;
    int64_t collapsed = -1;
    for (int64_t b = start; b < stop; b++) {
        const double *u_j = y + (int64_t)neighbors[b] * 2 * dim;
        double eta[3], term;
        for (int k = 0; k < dim; k++)
            eta[k] = u_j[k] - u_i[k];
        if (law == LINEAR) {
            const double *q = table + b;
            double d = eta[0] * q[0];
            for (int k = 1; k < dim; k++)
                d = d + eta[k] * q[k * n_bonds];
            if (!mu[b])
                d = d * 0.0;
            for (int k = 0; k < dim; k++) {
                term = d * q[k * n_bonds];
                acc[k] = acc[k] + term;
            }
        } else {
            const double *xi = table + b;
            double length = table[dim * n_bonds + b];
            double p[3], sq, ndef, coef, scale;
            p[0] = xi[0] + eta[0];
            sq = p[0] * p[0];
            for (int k = 1; k < dim; k++)
                p[k] = xi[k * n_bonds] + eta[k];
            for (int k = 1; k < dim; k++)
                sq = sq + p[k] * p[k];
            ndef = sqrt(sq);
            if (ndef < tol * length && collapsed < 0)
                collapsed = b;
            coef = mu[b] ? alpha : alpha * 0.0;
            scale = (coef * ((ndef - length) / length)) / ndef;
            for (int k = 0; k < dim; k++) {
                term = scale * p[k];
                acc[k] = acc[k] + term;
            }
        }
    }
    if (start == stop) {
        /* a point with no bonds: a non-finite displacement makes its
         * sums NaN, as a bond of the point to itself would */
        double pad = 0.0;
        for (int k = 0; k < dim; k++)
            pad = pad + (u_i[k] - u_i[k]);
        for (int k = 0; k < dim; k++)
            acc[k] = pad;
    }
    return collapsed;
}

/* Rates of the points rows[0 .. n_rows - 1] into out, (n_rows, 2 dim).
 * y is (n_points, 2 dim), body (dim, n_points), v_prescribed
 * (n_points, dim).  Writes the lowest collapsed bond, or -1, to
 * *collapsed, and returns the position in rows of the first row with a
 * non-finite rate, or -1. */
int64_t peridyn_rates(int law, int dim, int64_t n_points, int64_t n_bonds,
                      const int64_t *offsets, const int32_t *neighbors,
                      const double *table, const double *body,
                      const uint8_t *constrained, const double *v_prescribed,
                      double vol, double rho, double alpha, double tol,
                      int64_t *collapsed, const int64_t *rows, int64_t n_rows,
                      const uint8_t *mu, const double *y, double *out)
{
    int64_t bad = -1;
    *collapsed = -1;
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t i = rows[r];
        double acc[3] = {0.0, 0.0, 0.0};
        double *o = out + r * 2 * dim;
        int64_t hit;
        /* a constant dim and law let the compiler unroll each case */
        if (law == LINEAR)
            hit = dim == 2 ? row_sums(LINEAR, 2, i, offsets[i], offsets[i + 1],
                                      n_bonds, neighbors, mu, table, y,
                                      alpha, tol, acc)
                           : row_sums(LINEAR, 3, i, offsets[i], offsets[i + 1],
                                      n_bonds, neighbors, mu, table, y,
                                      alpha, tol, acc);
        else
            hit = dim == 2 ? row_sums(NONLINEAR, 2, i, offsets[i],
                                      offsets[i + 1], n_bonds, neighbors, mu,
                                      table, y, alpha, tol, acc)
                           : row_sums(NONLINEAR, 3, i, offsets[i],
                                      offsets[i + 1], n_bonds, neighbors, mu,
                                      table, y, alpha, tol, acc);
        if (hit >= 0 && (*collapsed < 0 || hit < *collapsed))
            *collapsed = hit;
        for (int k = 0; k < dim; k++) {
            o[k] = y[i * 2 * dim + dim + k];
            o[dim + k] = ((acc[k] * vol) + body[k * n_points + i]) / rho;
        }
        if (constrained[i]) {
            for (int k = 0; k < dim; k++) {
                o[k] = v_prescribed[i * dim + k];
                o[dim + k] = 0.0;
            }
        }
        for (int k = 0; k < 2 * dim && bad < 0; k++)
            if (!isfinite(o[k]))
                bad = r;
    }
    return bad;
}
