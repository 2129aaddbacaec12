//! HTTP/1.1 plumbing for the serving listener. The bounded request
//! reader and response writer are the workspace's one HTTP module,
//! [`fbmpk_obs::http`] (shared with the metrics endpoint), re-exported
//! here; this module adds the result-vector wire format.

pub use fbmpk_obs::http::{
    read_request, ReadError, Request, Response, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};

/// Renders a result vector as the 200 body: one `f64` per line via
/// `Display`, whose shortest-round-trip formatting preserves the exact
/// bits — the batching bit-identity guarantee survives the wire.
pub fn render_vector(y: &[f64]) -> String {
    let mut out = String::with_capacity(y.len() * 20);
    for v in y {
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_rendering_round_trips_bits() {
        let values = [1.0, -0.1, std::f64::consts::PI, 1e-300, -2.5e17, 0.0];
        let body = render_vector(&values);
        let parsed: Vec<f64> = body.lines().map(|l| l.parse().unwrap()).collect();
        for (a, b) in values.iter().zip(&parsed) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} must survive the wire exactly");
        }
    }
}
