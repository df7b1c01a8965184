//! The answer oracle: every reply's rows are compared with what an
//! in-process `Engine` answers on the same generated document.

use treequery_core::obs::{parse_json, Json};
use treequery_core::tree::Tree;
use treequery_core::{Engine, QueryOutput};

use crate::workload::{Band, Lang};

/// What the server must answer to one pool query.
pub struct Expected {
    /// The `rows` array exactly as the server renders it.
    pub rows: String,
    pub row_count: usize,
    /// Pre ranks of a node answer (empty for tuple answers).
    pub pres: Vec<u32>,
}

/// An answer as the server puts it on the wire: rows of pre ranks.
pub fn rows_json(tree: &Tree, out: &QueryOutput) -> Json {
    let pre = |v| Json::from(tree.pre(v));
    match out {
        QueryOutput::Nodes(nodes) => Json::Arr(nodes.iter().map(|&v| pre(v)).collect()),
        QueryOutput::Answer(a) => Json::Arr(
            a.tuples
                .iter()
                .map(|t| Json::Arr(t.iter().map(|&v| pre(v)).collect()))
                .collect(),
        ),
    }
}

/// Evaluates every pool query in process.
pub fn expectations(tree: &Tree, pool: &[(Lang, &str)]) -> Result<Vec<Expected>, String> {
    let engine = Engine::new(tree);
    pool.iter()
        .map(|&(lang, text)| {
            let out = engine
                .eval(&lang.query(text))
                .map_err(|e| format!("{text}: {e}"))?;
            let (row_count, pres) = match &out {
                QueryOutput::Nodes(nodes) => {
                    (nodes.len(), nodes.iter().map(|&v| tree.pre(v)).collect())
                }
                QueryOutput::Answer(a) => (a.tuples.len(), Vec::new()),
            };
            Ok(Expected {
                rows: rows_json(tree, &out).render(),
                row_count,
                pres,
            })
        })
        .collect()
}

/// Rejects a pool whose answers leave the workload's band: generator
/// drift must fail loudly rather than show up as noise.
pub fn check_band(pool: &[(Lang, &str)], expected: &[Expected], band: Band) -> Result<(), String> {
    for (&(_, text), exp) in pool.iter().zip(expected) {
        // The reply adds a fixed envelope of well under 300 bytes.
        let bytes = exp.rows.len() + 300;
        if exp.row_count < band.min_rows
            || exp.row_count > band.max_rows
            || bytes < band.min_bytes
            || bytes >= band.max_bytes
        {
            return Err(format!(
                "{text}: {} rows / ~{bytes} reply bytes leave the band {band:?}",
                exp.row_count
            ));
        }
    }
    Ok(())
}

/// The `rows` array of a reply, as sent.
pub fn rows_field(reply: &str) -> Option<&str> {
    let start = reply.find("\"rows\":")? + "\"rows\":".len();
    let bytes = reply.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(&reply[start..=i]);
                }
            }
            _ if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

/// Whether a query reply carries exactly the expected rows.
pub fn check_query(reply: &str, exp: &Expected) -> bool {
    is_ok(reply) && rows_field(reply) == Some(exp.rows.as_str())
}

/// Whether a node-answer reply equals the expected answer as seen at one
/// of the candidate versions of an edited document. `live_pres` holds,
/// per candidate version, the sorted pre ranks of the inserted leaves;
/// no pool query can select one, so every row maps back to a node of the
/// unedited document.
pub fn check_query_versions(reply: &str, exp: &Expected, live_pres: &[Vec<u32>]) -> bool {
    let Some(rows) = is_ok(reply).then(|| rows_field(reply)).flatten() else {
        return false;
    };
    let inner = &rows[1..rows.len() - 1];
    let parsed: Option<Vec<u32>> = if inner.is_empty() {
        Some(Vec::new())
    } else {
        inner.split(',').map(|s| s.parse().ok()).collect()
    };
    let Some(got) = parsed else {
        return false;
    };
    got.len() == exp.pres.len()
        && live_pres.iter().any(|live| {
            got.iter().zip(&exp.pres).all(|(&pre, &orig)| {
                live.binary_search(&pre).is_err()
                    && pre - live.partition_point(|&l| l < pre) as u32 == orig
            })
        })
}

/// Whether an edit reply reports the node count and fingerprint the
/// mirror document reached.
pub fn check_edit(reply: &str, nodes: usize, fingerprint: u64) -> bool {
    let Ok(v) = parse_json(reply) else {
        return false;
    };
    v.get("ok") == Some(&Json::Bool(true))
        && v.get("nodes").and_then(Json::as_u64) == Some(nodes as u64)
        && v.get("fingerprint").and_then(Json::as_str)
            == Some(format!("{fingerprint:016x}").as_str())
}
