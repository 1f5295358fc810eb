//! Householder reflector generation (LAPACK `dlarfg`).

/// LAPACK's `safmin`: the smallest norm the plain formulas handle without
/// losing accuracy to underflow, and the rescaling step for tails below it.
const SAFMIN: f64 = f64::MIN_POSITIVE / f64::EPSILON;

/// Generate an elementary Householder reflector H = I − τ·v·vᵀ with
/// v = [1; x'] such that H·[α; x] = [β; 0].
///
/// On return `x` holds the tail of v (x'), and `(β, τ)` is returned.
/// When `x` is already zero, τ = 0 (H = I) and β = α, as in LAPACK.
pub(crate) fn larfg(alpha: f64, x: &mut [f64]) -> (f64, f64) {
    let sigma: f64 = x.iter().map(|v| v * v).sum();
    let musq = alpha * alpha + sigma;
    // The plain sum of squares under- or overflowed: take LAPACK's scaled
    // path. Inputs in the normal range never reach it, so they keep the
    // bits of the plain formulas below.
    if sigma < SAFMIN || musq == f64::INFINITY {
        return larfg_scaled(alpha, x);
    }
    let mu = musq.sqrt();
    let beta = beta_for(alpha, mu);
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for v in x.iter_mut() {
        *v *= scale;
    }
    (beta, tau)
}

/// β = −sign(α)·μ, which avoids cancellation in α − β.
fn beta_for(alpha: f64, mu: f64) -> f64 {
    if alpha <= 0.0 {
        mu
    } else {
        -mu
    }
}

/// [`larfg`] for tails whose sum of squares leaves the normal range, as
/// LAPACK `dlarfg` does it: an overflow-free norm, and while |β| is below
/// [`SAFMIN`] the whole problem is scaled up (at most 20 times) and β
/// scaled back down at the end.
fn larfg_scaled(mut alpha: f64, x: &mut [f64]) -> (f64, f64) {
    let xnorm = scaled_norm(x);
    if xnorm == 0.0 {
        return (alpha, 0.0);
    }
    let mut beta = beta_for(alpha, alpha.hypot(xnorm));
    let mut knt = 0;
    while beta.abs() < SAFMIN && knt < 20 {
        knt += 1;
        for v in x.iter_mut() {
            *v /= SAFMIN;
        }
        beta /= SAFMIN;
        alpha /= SAFMIN;
    }
    if knt > 0 {
        beta = beta_for(alpha, alpha.hypot(scaled_norm(x)));
    }
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for v in x.iter_mut() {
        *v *= scale;
    }
    for _ in 0..knt {
        beta *= SAFMIN;
    }
    (beta, tau)
}

/// ‖x‖₂ without intermediate under- or overflow.
fn scaled_norm(x: &[f64]) -> f64 {
    let m = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if m == 0.0 {
        return 0.0;
    }
    m * x.iter().map(|v| (v / m) * (v / m)).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply_reflector(alpha: f64, orig_x: &[f64], v: &[f64], tau: f64) -> Vec<f64> {
        // H [alpha; x] = [alpha; x] - tau * vhat * (vhatᵀ [alpha; x]),
        // vhat = [1; v].
        let mut w = alpha;
        for (vi, xi) in v.iter().zip(orig_x) {
            w += vi * xi;
        }
        w *= tau;
        let mut out = Vec::with_capacity(1 + orig_x.len());
        out.push(alpha - w);
        for (vi, xi) in v.iter().zip(orig_x) {
            out.push(xi - w * vi);
        }
        out
    }

    #[test]
    fn annihilates_tail() {
        let alpha = 3.0;
        let orig = vec![1.0, -2.0, 0.5];
        let mut x = orig.clone();
        let (beta, tau) = larfg(alpha, &mut x);
        let out = apply_reflector(alpha, &orig, &x, tau);
        assert!((out[0] - beta).abs() < 1e-14, "head should become beta");
        for (i, &v) in out.iter().enumerate().skip(1) {
            assert!(v.abs() < 1e-14, "tail entry {i} should vanish, got {v}");
        }
    }

    #[test]
    fn preserves_two_norm() {
        let alpha = -1.5;
        let orig = vec![2.0, 4.0, -1.0, 0.25];
        let mut x = orig.clone();
        let (beta, _tau) = larfg(alpha, &mut x);
        let norm_in = (alpha * alpha + orig.iter().map(|v| v * v).sum::<f64>()).sqrt();
        assert!((beta.abs() - norm_in).abs() < 1e-14);
    }

    #[test]
    fn zero_tail_gives_identity() {
        let mut x = vec![0.0, 0.0];
        let (beta, tau) = larfg(7.0, &mut x);
        assert_eq!(beta, 7.0);
        assert_eq!(tau, 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn beta_sign_is_opposite_of_alpha() {
        for &alpha in &[5.0, -5.0] {
            let mut x = vec![1.0];
            let (beta, _) = larfg(alpha, &mut x);
            assert!(beta * alpha < 0.0, "alpha {alpha} -> beta {beta}");
        }
    }

    #[test]
    fn empty_tail_is_identity() {
        let mut x: Vec<f64> = vec![];
        let (beta, tau) = larfg(-2.0, &mut x);
        assert_eq!(beta, -2.0);
        assert_eq!(tau, 0.0);
    }

    #[test]
    fn tau_within_stability_range() {
        // LAPACK guarantees 1 <= tau <= 2 for real reflectors (when nonzero).
        let mut x = vec![0.3, -0.7, 2.0];
        let (_, tau) = larfg(0.1, &mut x);
        assert!((1.0..=2.0).contains(&tau), "tau = {tau}");
    }

    #[test]
    fn tiny_and_huge_tails_keep_their_reflector() {
        // The plain sum of squares underflows to zero at 1e-170 and
        // overflows at 1e200; both must still annihilate the tail.
        for scale in [1e-300, 1e-170, 1e-160, 1e160, 1e200, 1e300] {
            let orig: Vec<f64> = [1.0, -2.0, 0.5].iter().map(|v| v * scale).collect();
            let alpha = 3.0 * scale;
            let mut x = orig.clone();
            let (beta, tau) = larfg(alpha, &mut x);
            assert!(beta.is_finite() && tau.is_finite() && x.iter().all(|v| v.is_finite()));
            assert!(((beta / scale).abs() - 14.25f64.sqrt()).abs() < 1e-14, "{scale:e}");
            assert!((1.0..=2.0).contains(&tau), "{scale:e}: tau = {tau}");
            let out = apply_reflector(alpha / scale, &[1.0, -2.0, 0.5], &x, tau);
            for (i, &v) in out.iter().enumerate().skip(1) {
                assert!(v.abs() < 1e-14, "{scale:e}: tail entry {i} = {v}");
            }
        }
    }
}
