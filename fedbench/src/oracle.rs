//! Expected answers: sorted-CSV digests of every query the workloads can
//! send, computed once by the independent lifted-graph evaluator
//! (`fedlake_sparql::eval`) over `DataLake::oracle_graph`, and stored
//! with the benchmark in `digests.tsv`.
//!
//! The oracle is never evaluated in a measured process: at the default
//! scale the oracle graph raises peak memory to about 1.5 GB, far above a
//! workload's, so `fedbench digests` regenerates the file in a process of
//! its own.

use fedlake_core::DataLake;
use fedlake_serve::workload::{instantiate, InstantiatedQuery};
use fedlake_sparql::binding::{Row, Var};
use std::collections::BTreeMap;

/// The stored digests, embedded at build time.
pub const DIGESTS_TSV: &str = include_str!("../digests.tsv");

/// FNV-1a, 64 bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The digest of an answer set: FNV-1a of its sorted SPARQL CSV.
pub fn answer_digest(vars: &[Var], rows: &[Row]) -> u64 {
    fnv64(fedlake_serve::sorted_csv(vars, rows).as_bytes())
}

/// A cheap fingerprint of an answer sequence, in result order: later
/// passes of a run must reproduce the first pass's answers exactly, and
/// the first pass is checked against the oracle.
pub fn repeat_fingerprint(vars: &[Var], rows: &[Row]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    vars.hash(&mut h);
    rows.hash(&mut h);
    h.finish()
}

/// Expected digests, keyed by the FNV-1a of the query text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digests {
    by_query: BTreeMap<u64, (String, u64)>,
}

impl Digests {
    /// Parses `query_hash<TAB>label<TAB>answers<TAB>digest` lines (hex
    /// hashes; `#` starts a comment line).
    pub fn parse(tsv: &str) -> Result<Digests, String> {
        let mut by_query = BTreeMap::new();
        for (n, line) in tsv.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let hex =
                |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("line {}: {e}", n + 1));
            if f.len() != 4 {
                return Err(format!(
                    "line {}: expected 4 fields, got {}",
                    n + 1,
                    f.len()
                ));
            }
            by_query.insert(hex(f[0])?, (f[1].to_string(), hex(f[3])?));
        }
        if by_query.is_empty() {
            return Err("no digests".into());
        }
        Ok(Digests { by_query })
    }

    /// Checks one answer set of `sparql`; `Err` names the query.
    pub fn check(&self, sparql: &str, vars: &[Var], rows: &[Row]) -> Result<(), String> {
        let Some((label, want)) = self.by_query.get(&fnv64(sparql.as_bytes())) else {
            return Err(format!("no stored digest for query:\n{sparql}"));
        };
        let got = answer_digest(vars, rows);
        if got != *want {
            return Err(format!(
                "{label}: answer digest {got:016x} differs from the oracle's {want:016x} \
                 ({} rows)",
                rows.len()
            ));
        }
        Ok(())
    }
}

/// Every distinct query a workload can send: the stock Q1–Q5 and every
/// parameter variant of their serve templates, by label.
pub fn all_queries() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for q in fedlake_datagen::workload::experiment_queries() {
        out.insert(format!("{}[stock]", q.id), q.sparql);
    }
    for id in ["Q1", "Q2", "Q3", "Q4", "Q5"] {
        // The template domains are small (at most 50 values); this many
        // seeded draws covers each many times over.
        for seed in 0..4000u64 {
            let mut rng = fedlake_prng::Prng::seed_from_u64(seed);
            let InstantiatedQuery { label, sparql, .. } =
                instantiate(id, &mut rng).expect("Q1–Q5 are templated");
            out.insert(label, sparql);
        }
    }
    out
}

/// Evaluates every query of [`all_queries`] with the oracle and renders
/// the digest file.
pub fn regenerate(lake: &DataLake) -> Result<String, String> {
    let graph = lake.oracle_graph();
    let mut seen = BTreeMap::new();
    let mut out = String::from(
        "# query_fnv64\tlabel\tanswers\tanswer_digest (sorted SPARQL CSV, FNV-1a)\n\
         # Regenerate: cargo run --release --manifest-path fedbench/Cargo.toml -- digests\n",
    );
    for (label, sparql) in all_queries() {
        let key = fnv64(sparql.as_bytes());
        if seen.insert(key, label.clone()).is_some() {
            continue; // a stock query equals one of its template's variants
        }
        let query = fedlake_sparql::parser::parse_query(&sparql).map_err(|e| e.to_string())?;
        let rows =
            fedlake_sparql::eval::evaluate(&query, &graph).map_err(|e| format!("{label}: {e}"))?;
        let vars = query.effective_projection();
        out.push_str(&format!(
            "{key:016x}\t{label}\t{}\t{:016x}\n",
            rows.len(),
            answer_digest(&vars, &rows)
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stored_file_covers_every_query() {
        let digests = Digests::parse(DIGESTS_TSV).expect("stored digests parse");
        for (label, sparql) in all_queries() {
            assert!(
                digests.by_query.contains_key(&fnv64(sparql.as_bytes())),
                "{label} has no stored digest"
            );
        }
    }

    #[test]
    fn malformed_digest_files_are_refused() {
        assert!(Digests::parse("").is_err());
        assert!(Digests::parse("00ff\tQ1\t3\n").is_err());
        assert!(Digests::parse("zz\tQ1\t3\t00ff\n").is_err());
        assert!(Digests::parse("# c\n00ff\tQ1\t3\t00ff\n").is_ok());
    }
}
