//! # fedbench
//!
//! The end-to-end and per-layer benchmark of the fedlake federated
//! engine. One command runs a named workload through the engine's public
//! API, checks every answer against digests from an independent oracle,
//! and prints each metric by name with its unit; a traced run times the
//! calls into each layer from this crate's own code. See `NOTES.md`.

pub mod oracle;
pub mod span;
pub mod stats;
pub mod workloads;

/// Refuses any `FEDLAKE_*` variable among `vars`, naming the first (in
/// name order). `PlanConfig::default()` reads several of them, so a stray
/// export would silently switch the engine's execution path or planner.
pub fn check_hermetic<I>(vars: I) -> Result<(), String>
where
    I: IntoIterator<Item = (std::ffi::OsString, std::ffi::OsString)>,
{
    let mut set: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("FEDLAKE_"))
        .collect();
    set.sort();
    match set.first() {
        None => Ok(()),
        Some(name) => Err(format!(
            "refusing to run with {name} set: FEDLAKE_* variables change the engine's \
             configuration defaults; unset them"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::OsString;

    fn env(names: &[&str]) -> Vec<(OsString, OsString)> {
        names
            .iter()
            .map(|n| (OsString::from(n), OsString::from("1")))
            .collect()
    }

    #[test]
    fn fedlake_variables_are_refused_by_name() {
        assert!(check_hermetic(env(&["PATH", "HOME", "CARGO_TARGET_DIR"])).is_ok());
        let err =
            check_hermetic(env(&["PATH", "FEDLAKE_PLAN_CACHE", "FEDLAKE_BATCH"])).unwrap_err();
        assert!(err.contains("FEDLAKE_BATCH "), "{err}");
        assert!(check_hermetic(env(&["FEDLAKE_"])).is_err());
        assert!(check_hermetic(env(&["XFEDLAKE_COST"])).is_ok());
    }
}
