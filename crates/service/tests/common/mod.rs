//! Shared by the integration suites (`mod common;`): not a test binary.

use reldiv_service::DivideRequest;

/// A plain `dividend ÷ divisor` request; tests override fields with
/// struct-update syntax.
pub fn request(dividend: &str, divisor: &str) -> DivideRequest {
    DivideRequest {
        dividend: dividend.into(),
        divisor: divisor.into(),
        algorithm: None,
        assume_unique: false,
        spec: None,
        deadline_ms: None,
        profile: false,
        distribute: None,
        restricted: None,
        mem_budget: None,
    }
}
