/* The bond loops of peridyn: the neighbor list of
 * geometry.build_neighbor_list, which decides the bonds from the same
 * lengths as every table below, the build of the bond table that
 * forces.PDOperator.rates reads, rates itself, where each row of a view
 * sums the pairwise forces of its bonds in CSR order, then forms its
 * rates, and the damage check of forces.update_damage with the build of
 * its half-bond table (at the end).
 *
 * Every product is rounded before it is added (the loader compiles with
 * -ffp-contract=off), every sum runs in a fixed order, and the only
 * operations are + - * / and sqrt, which IEEE 754 rounds correctly, so
 * the bits depend on no CPU dispatch and no math library:
 *   the bond geometry, from the positions x: xi = x_j - x_i and
 *     |xi| = sqrt(xi0 xi0 + xi1 xi1 [+ xi2 xi2]), summed in that order;
 *   linear law, with the bond factor q = sqrt(alpha / ((|xi| |xi|) |xi|)) xi:
 *     d = (u_j0 - u_i0) q0 + (u_j1 - u_i1) q1 [+ (u_j2 - u_i2) q2],
 *     d = d * 0.0 for a broken bond, and the force is d q;
 *   nonlinear law, with p = xi + eta and s = (|p| - |xi|) / |xi|:
 *     the force is ((coef s) / |p|) p, coef = alpha or alpha * 0.0.
 * A broken bond is multiplied by 0.0, never skipped, so NaN propagates.
 * A row's sums start from +0.0 and add its bonds in ascending order; the
 * rates are then ((sum * vol) + body) / rho and the velocity, or the
 * prescribed velocity and 0.0 at a constrained point.
 *
 * Every loop over the dim components is unrolled (#pragma GCC unroll 3),
 * so the 3D path keeps its components in registers as the 2D path does;
 * unrolling changes no operation and no order.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define LINEAR 0
#define NONLINEAR 1

/* xi = x_j - x_i of the positions x, (n_points, dim), into xi; returns
 * |xi|, with the squares summed in component order as geometry._norm sums
 * them. */
static inline double bond_vector(int dim, const double *x, int64_t i,
                                 int64_t j, double *xi)
{
    double sq = 0.0;
    #pragma GCC unroll 3
    for (int k = 0; k < dim; k++) {
        xi[k] = x[j * dim + k] - x[i * dim + k];
        sq = k ? sq + xi[k] * xi[k] : xi[k] * xi[k];
    }
    return sqrt(sq);
}

/* The horizon neighbor list of the points x, (n_points, dim): point i
 * bonds to each j != i with |xi| (bond_vector's) <= reach among those
 * listed in the cells at the offsets o = 0 .. 3^dim - 1 (row-major over
 * {-1, 0, 1}^dim) from its cell cells[i], in a grid of dims cells whose
 * outer layer is empty.  Cell ids[c] (row-major, ascending) lists
 * order[start[c] .. start[c + 1] - 1].  With neighbors NULL, this writes
 * offsets[1 ..] and returns 1 with the first zero |xi| (by o, then i,
 * then j) in pair, else 0.  Else it fills each row, inserting each j in
 * ascending order, pairs each bond i -> j, j < i, with j -> i by
 * bisection into row j, and returns 2 when a bond has no reverse, else 0.
 */
int64_t peridyn_neighbors(int dim, int64_t n_points, int64_t n_cells,
                          double reach, const double *x,
                          const int64_t *cells, const int64_t *dims,
                          const int64_t *ids, const int64_t *start,
                          const int64_t *order, int64_t *offsets,
                          int32_t *neighbors, int32_t *partner, int64_t *pair)
{
    int first = -1;
    int64_t paired = 0, lo, hi, t;
    for (int64_t i = 0, b = 0; i < n_points; i++) {
        for (int o = 0; o < (dim == 2 ? 9 : 27); o++) {
            int64_t id = 0;
            #pragma GCC unroll 3
            for (int k = 0, scale = dim == 2 ? 3 : 9; k < dim; k++, scale /= 3)
                id = id * dims[k] + cells[i * dim + k] + (o / scale) % 3 - 1;
            for (lo = 0, hi = n_cells; lo < hi;)
                if (ids[t = lo + (hi - lo) / 2] < id)
                    lo = t + 1;
                else
                    hi = t;
            if (lo == n_cells || ids[lo] != id)
                continue;
            for (int64_t p = start[lo]; p < start[lo + 1]; p++) {
                int64_t j = order[p];
                double xi[3], length;
                if (j == i)
                    continue;
                length = dim == 2 ? bond_vector(2, x, i, j, xi)
                                  : bond_vector(3, x, i, j, xi);
                if (length == 0.0 && (first < 0 || o < first)) {
                    first = o;
                    pair[0] = i;
                    pair[1] = j;
                }
                if (length <= reach && neighbors) {
                    for (t = b; t > offsets[i] && neighbors[t - 1] > j; t--)
                        neighbors[t] = neighbors[t - 1];
                    neighbors[t] = (int32_t)j;
                }
                b += length <= reach;
            }
        }
        offsets[i + 1] = b; /* the same count in both passes */
        for (int64_t c = offsets[i]; neighbors && c < b && neighbors[c] < i;
             c++) {
            int64_t end = offsets[neighbors[c] + 1];
            for (lo = offsets[neighbors[c]], hi = end; lo < hi;)
                if (neighbors[t = lo + (hi - lo) / 2] < i)
                    lo = t + 1;
                else
                    hi = t;
            if (lo < end && neighbors[lo] == i) {
                partner[c] = (int32_t)lo;
                partner[lo] = (int32_t)c;
                paired++;
            }
        }
    }
    return neighbors ? 2 * (2 * paired != offsets[n_points]) : first >= 0;
}

/* The bond table that rates reads, in CSR order, into table: q = s xi
 * with s = sqrt(alpha / ((|xi| |xi|) |xi|)) as (dim, n_bonds) under the
 * linear law, xi as (dim, n_bonds) followed by |xi| under the nonlinear
 * law. */
void peridyn_bond_table(int law, int dim, int64_t n_points, int64_t n_bonds,
                        const int64_t *offsets, const int32_t *neighbors,
                        const double *x, double alpha, double *table)
{
    for (int64_t i = 0; i < n_points; i++)
        for (int64_t b = offsets[i]; b < offsets[i + 1]; b++) {
            double xi[3], length, s;
            length = dim == 2 ? bond_vector(2, x, i, neighbors[b], xi)
                              : bond_vector(3, x, i, neighbors[b], xi);
            if (law == LINEAR) {
                s = length * length;
                s = sqrt(alpha / (s * length));
                #pragma GCC unroll 3
                for (int k = 0; k < dim; k++)
                    table[k * n_bonds + b] = xi[k] * s;
            } else {
                #pragma GCC unroll 3
                for (int k = 0; k < dim; k++)
                    table[k * n_bonds + b] = xi[k];
                table[dim * n_bonds + b] = length;
            }
        }
}

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
        #pragma GCC unroll 3
        for (int k = 0; k < dim; k++)
            eta[k] = u_j[k] - u_i[k];
        if (law == LINEAR) {
            const double *q = table + b;
            double d = eta[0] * q[0];
            #pragma GCC unroll 3
            for (int k = 1; k < dim; k++)
                d = d + eta[k] * q[k * n_bonds];
            if (!mu[b])
                d = d * 0.0;
            #pragma GCC unroll 3
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
            #pragma GCC unroll 3
            for (int k = 1; k < dim; k++)
                p[k] = xi[k * n_bonds] + eta[k];
            #pragma GCC unroll 3
            for (int k = 1; k < dim; k++)
                sq = sq + p[k] * p[k];
            ndef = sqrt(sq);
            if (ndef < tol * length && collapsed < 0)
                collapsed = b;
            coef = mu[b] ? alpha : alpha * 0.0;
            scale = (coef * ((ndef - length) / length)) / ndef;
            #pragma GCC unroll 3
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
        #pragma GCC unroll 3
        for (int k = 0; k < dim; k++)
            pad = pad + (u_i[k] - u_i[k]);
        #pragma GCC unroll 3
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
        #pragma GCC unroll 3
        for (int k = 0; k < dim; k++) {
            o[k] = y[i * 2 * dim + dim + k];
            o[dim + k] = ((acc[k] * vol) + body[k * n_points + i]) / rho;
        }
        if (constrained[i]) {
            #pragma GCC unroll 3
            for (int k = 0; k < dim; k++) {
                o[k] = v_prescribed[i * dim + k];
                o[dim + k] = 0.0;
            }
        }
        #pragma GCC unroll 3
        for (int k = 0; k < 2 * dim; k++)
            if (bad < 0 && !isfinite(o[k]))
                bad = r;
    }
    return bad;
}

/* The damage check of forces.update_damage, one side of its half-bond
 * table at a time.  x is (n_points, dim) and u is read with a row stride
 * of stride doubles; p = x + u, and a half-bond i -> j of length |xi|
 * breaks when (|p_j - p_i| - |xi|) / |xi| >= s0, with |.| summed as
 * geometry._norm sums it.  It is watched, by a refresh, when the same
 * test passes for |p_j - p_i| + skin.  The test rises with the length
 * under rounding too, so every hit is watched: the hit test runs on
 * watched half-bonds only.  Broken bonds are tested and watched too;
 * forces._break_bonds skips them. */

/* One side of the half-bond table: the bonds b of each row i whose far
 * end j = neighbors[b] is above i and, unless mask is NULL, with mask[b]
 * set, in ascending order.  With ids NULL this only counts them.  Else it
 * writes their ids to ids and their lengths |xi| (bond_vector's) to
 * length, sets ends[i] and ends[j] of each, and writes the least and the
 * greatest length to range[0] and range[1] (untouched for a side of no
 * half-bonds).  Returns the number of half-bonds. */
int64_t peridyn_half_bonds(int dim, int64_t n_points, const int64_t *offsets,
                           const int32_t *neighbors, const double *x,
                           const uint8_t *mask, int32_t *ids, double *length,
                           uint8_t *ends, double *range)
{
    int64_t n = 0;
    for (int64_t i = 0; i < n_points; i++)
        for (int64_t b = offsets[i]; b < offsets[i + 1]; b++) {
            int64_t j = neighbors[b];
            double xi[3], len;
            if (j <= i || (mask && !mask[b]))
                continue;
            if (ids) {
                len = dim == 2 ? bond_vector(2, x, i, j, xi)
                               : bond_vector(3, x, i, j, xi);
                ids[n] = (int32_t)b;
                length[n] = len;
                ends[i] = ends[j] = 1;
                if (n == 0 || len < range[0])
                    range[0] = len;
                if (n == 0 || len > range[1])
                    range[1] = len;
            }
            n++;
        }
    return n;
}

static inline double deformed_length(int dim, const double *x,
                                     const double *u, int64_t stride,
                                     int64_t i, int64_t j)
{
    double d, sq = 0.0;
    #pragma GCC unroll 3
    for (int k = 0; k < dim; k++) {
        d = (x[j * dim + k] + u[j * stride + k])
            - (x[i * dim + k] + u[i * stride + k]);
        sq = k ? sq + d * d : d * d;
    }
    return sqrt(sq);
}

/* The watched half-bonds ids[0 .. n - 1], with ends i and j and lengths
 * length, whose stretch reaches s0, into hits; returns their number. */
int64_t peridyn_watched(int dim, const double *x, const double *u,
                        int64_t stride, double s0, int64_t n,
                        const int32_t *ids, const int32_t *i,
                        const int32_t *j, const double *length,
                        int32_t *hits)
{
    int64_t n_hits = 0;
    for (int64_t w = 0; w < n; w++) {
        double g = dim == 2 ? deformed_length(2, x, u, stride, i[w], j[w])
                            : deformed_length(3, x, u, stride, i[w], j[w]);
        if ((g - length[w]) / length[w] >= s0)
            hits[n_hits++] = ids[w];
    }
    return n_hits;
}

/* A refresh: tests every half-bond ids[0 .. n - 1] (ascending) of the
 * side, each bond's source found by walking offsets along the ids and its
 * far end as neighbors[id].  Writes the watched half-bonds (id, ends,
 * length) to the watch arrays and the hits among them to hits, each of
 * room for n.  Returns the number watched and writes the number of hits
 * to *n_hits. */
int64_t peridyn_refresh(int dim, const double *x, const double *u,
                        int64_t stride, double s0, double skin,
                        const int64_t *offsets, const int32_t *neighbors,
                        int64_t n, const int32_t *ids, const double *length,
                        int32_t *watch_ids, int32_t *watch_i,
                        int32_t *watch_j, double *watch_length,
                        int32_t *hits, int64_t *n_hits)
{
    int64_t i = 0, n_watch = 0;
    *n_hits = 0;
    for (int64_t b = 0; b < n; b++) {
        int64_t id = ids[b], j = neighbors[id];
        double len = length[b], g;
        while (offsets[i + 1] <= id)
            i++;
        g = dim == 2 ? deformed_length(2, x, u, stride, i, j)
                     : deformed_length(3, x, u, stride, i, j);
        if (((g + skin) - len) / len >= s0) {
            watch_ids[n_watch] = (int32_t)id;
            watch_i[n_watch] = (int32_t)i;
            watch_j[n_watch] = (int32_t)j;
            watch_length[n_watch++] = len;
            if ((g - len) / len >= s0)
                hits[(*n_hits)++] = (int32_t)id;
        }
    }
    return n_watch;
}

/* The skin's drift bound over the side's n points: with lo_k and hi_k the
 * least and greatest component k of u - u_ref (u_ref is (dim, n)),
 * |hi - lo| + rounding * ((reach + 2 u_ref_max) + max(-min lo, max hi)).
 * NaN when any u - u_ref is NaN; 0 for a side with no points. */
double peridyn_drift(int dim, const double *u, int64_t stride, int64_t n,
                     const int64_t *points, const double *u_ref,
                     double u_ref_max, double reach, double rounding)
{
    double lo[3] = {INFINITY, INFINITY, INFINITY};
    double hi[3] = {-INFINITY, -INFINITY, -INFINITY};
    double d, sq = 0.0, far;
    if (n == 0)
        return 0.0;
    for (int64_t p = 0; p < n; p++)
        #pragma GCC unroll 3
        for (int k = 0; k < dim; k++) {
            d = u[points[p] * stride + k] - u_ref[k * n + p];
            if (isnan(d))
                return NAN;
            if (d < lo[k])
                lo[k] = d;
            if (d > hi[k])
                hi[k] = d;
        }
    far = -lo[0];
    #pragma GCC unroll 3
    for (int k = 1; k < dim; k++)
        if (-lo[k] > far)
            far = -lo[k];
    #pragma GCC unroll 3
    for (int k = 0; k < dim; k++)
        if (hi[k] > far)
            far = hi[k];
    #pragma GCC unroll 3
    for (int k = 0; k < dim; k++) {
        d = hi[k] - lo[k];
        sq = k ? sq + d * d : d * d;
    }
    return sqrt(sq) + rounding * ((reach + 2.0 * u_ref_max) + far);
}
