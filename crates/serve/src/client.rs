//! The client half used by the load generator and the property tests.
//! Requests go through the workspace's one HTTP module,
//! [`fbmpk_obs::http`] (re-exported here); this module adds the
//! kernel-request body and result-vector formats.

pub use fbmpk_obs::http::{parse_response, request, ClientResponse};

/// Builds a kernel-request body.
pub fn kernel_body(matrix: &str, k: usize, x: &str) -> String {
    format!("matrix={matrix}\nk={k}\nx={x}\n")
}

/// Parses a 200 body back into the result vector.
pub fn parse_vector(body: &str) -> Result<Vec<f64>, String> {
    body.lines()
        .map(|l| l.trim().parse::<f64>().map_err(|_| format!("bad value line {l:?}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_parse_round_trip() {
        let v = parse_vector("1\n-2.5\n3.25e-4\n").unwrap();
        assert_eq!(v, vec![1.0, -2.5, 3.25e-4]);
        assert!(parse_vector("1\nnope\n").is_err());
    }
}
