//! Lineage-log serialization and deserialization (paper §3.1, Fig 3).
//!
//! The serialized form is a plain-text *lineage log*: one line per lineage
//! item, inputs referenced by ID, every item serialized exactly once
//! (memoization over the DAG). Deduplicated graphs serialize their patch
//! dictionary first, preserving the compression for storage and transfer
//! (paper §3.2).
//!
//! Grammar (one entry per line):
//!
//! ```text
//! ::patch <idx> <block-key> <path-key> <num-inputs>   start a patch
//! ::root <output-name> (<id>)                         patch output root
//! ::endpatch                                          end of patch body
//! (<id>) L <data>                                     literal
//! (<id>) P <slot>                                     placeholder (in patches)
//! (<id>) I <opcode> (<id>) (<id>) ... [;<data>]       operation
//! (<id>) D <patch-idx> <output-name> (<id>) ...       dedup item
//! ::out (<id>)                                        root of the trace
//! ```

use crate::lineage::dedup::DedupPatch;
use crate::lineage::item::{FxBuildHasher, LinRef, LineageItem, LineageKind};
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, OnceLock};

/// Appends `s` escaped so that it contains no whitespace or backslashes.
fn push_escaped(out: &mut String, s: &str) {
    if !s.bytes().any(|b| matches!(b, b'\\' | b'\n' | b' ' | b'\t')) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            ' ' => out.push_str("\\s"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
}

/// Reverses [`push_escaped`]; borrows when the token holds no escape.
fn unescape(s: &str) -> Result<Cow<'_, str>, String> {
    if !s.contains('\\') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('s') => out.push(' '),
            Some('t') => out.push('\t'),
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(Cow::Owned(out))
}

/// Appends `v` in decimal. The formatting machinery costs more than the
/// digits, and a log line is mostly ids (as a replayed program is mostly
/// numbered temporaries: the runtime names them with this too).
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        if let Some(b) = buf.get_mut(at) {
            *b = b'0' + (v % 10) as u8;
        }
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if let Some(Ok(digits)) = buf.get(at..).map(std::str::from_utf8) {
        out.push_str(digits);
    }
}

fn push_ref(out: &mut String, lead: &str, id: u64) {
    out.push_str(lead);
    push_u64(out, id);
    out.push(')');
}

fn write_item_line(
    out: &mut String,
    item: &LineageItem,
    patch_idx: &HashMap<u64, usize, FxBuildHasher>,
) {
    push_ref(out, "(", item.id());
    match item.kind() {
        LineageKind::Literal => {
            out.push_str(" L ");
            push_escaped(out, item.data().unwrap_or(""));
        }
        LineageKind::Placeholder(slot) => {
            out.push_str(" P ");
            push_u64(out, u64::from(*slot));
        }
        LineageKind::Dedup(patch) => {
            out.push_str(" D ");
            // `serialize_lineage` indexes every patch of the DAG first.
            push_u64(
                out,
                patch_idx.get(&patch.patch_id()).copied().unwrap_or(0) as u64,
            );
            out.push(' ');
            push_escaped(out, item.data().unwrap_or(""));
            for i in item.inputs() {
                push_ref(out, " (", i.id());
            }
        }
        LineageKind::Op(_) => {
            out.push_str(" I ");
            push_escaped(out, item.opcode());
            for i in item.inputs() {
                push_ref(out, " (", i.id());
            }
            if let Some(d) = item.data() {
                out.push_str(" ;");
                push_escaped(out, d);
            }
        }
    }
    out.push('\n');
}

/// Serializes a lineage DAG (with its patch dictionary) into a lineage log.
///
/// ```
/// use lima_core::lineage::item::{lineage_eq, LineageItem};
/// use lima_core::lineage::serialize::{deserialize_lineage, serialize_lineage};
///
/// let x = LineageItem::op_with_data("read", "X.csv", vec![]);
/// let root = LineageItem::op("+", vec![x.clone(), x]);
/// let log = serialize_lineage(&root);
/// let back = deserialize_lineage(&log).unwrap();
/// assert!(lineage_eq(&root, &back));
/// ```
pub fn serialize_lineage(root: &LinRef) -> String {
    let order = root.topo_order();
    // Collect referenced patches (patch bodies contain no dedup items, so one
    // level suffices).
    let mut patches: Vec<&Arc<DedupPatch>> = Vec::new();
    let mut patch_idx: HashMap<u64, usize, FxBuildHasher> = HashMap::default();
    for item in &order {
        if let LineageKind::Dedup(p) = item.kind() {
            patch_idx.entry(p.patch_id()).or_insert_with(|| {
                patches.push(p);
                patches.len() - 1
            });
        }
    }
    // A line is about 30 bytes (benchmark README, `log_bytes_per_item`).
    let mut out = String::with_capacity(order.len() * 32);
    let no_patches = HashMap::default();
    for (idx, patch) in patches.iter().enumerate() {
        out.push_str("::patch ");
        push_u64(&mut out, idx as u64);
        out.push(' ');
        push_escaped(&mut out, patch.block_key());
        out.push(' ');
        push_u64(&mut out, patch.path_key());
        out.push(' ');
        push_u64(&mut out, patch.num_inputs() as u64);
        out.push('\n');
        // Serialize the union of all root bodies once, memoized across roots.
        let mut emitted: HashSet<u64, FxBuildHasher> = HashSet::default();
        for (_, proot) in patch.roots() {
            for item in proot.topo_order() {
                if emitted.insert(item.id()) {
                    write_item_line(&mut out, &item, &no_patches);
                }
            }
        }
        for (name, proot) in patch.roots() {
            out.push_str("::root ");
            push_escaped(&mut out, name);
            push_ref(&mut out, " (", proot.id());
            out.push('\n');
        }
        out.push_str("::endpatch\n");
    }
    for item in &order {
        write_item_line(&mut out, item, &patch_idx);
    }
    push_ref(&mut out, "::out (", root.id());
    out.push('\n');
    out
}

/// Parses an `(id)` token.
fn parse_ref(tok: &str) -> Result<u64, String> {
    tok.strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or_else(|| format!("expected (id), got '{tok}'"))?
        .parse::<u64>()
        .map_err(|e| format!("bad id '{tok}': {e}"))
}

/// Takes exactly `N` tokens: `None` when there are fewer or more. (Public for
/// the runtime, which splits the data payloads of replayed items with it.)
pub fn take_exact<'a, const N: usize>(
    toks: &mut impl Iterator<Item = &'a str>,
) -> Option<[&'a str; N]> {
    let mut out = [""; N];
    for slot in out.iter_mut() {
        *slot = toks.next()?;
    }
    toks.next().is_none().then_some(out)
}

/// Hasher of the id → item map of [`deserialize_lineage`]. Its keys are read
/// from the log, so a crafted log must not be able to steer them into one
/// bucket: multiply-shift with an odd multiplier drawn once per process is
/// 2-universal on the *top* bits of the product, and `reverse_bits` moves
/// those to the low end, where the table takes its bucket index from. One
/// multiplication per lookup instead of a SipHash round trip.
#[derive(Clone, Copy)]
struct LogIdHasher {
    mul: u64,
    hash: u64,
}

impl Hasher for LogIdHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.hash ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.hash = v.wrapping_mul(self.mul).reverse_bits();
    }
}

impl BuildHasher for LogIdHasher {
    type Hasher = LogIdHasher;

    fn build_hasher(&self) -> LogIdHasher {
        *self
    }
}

fn log_id_hasher() -> LogIdHasher {
    static MUL: OnceLock<u64> = OnceLock::new();
    LogIdHasher {
        mul: *MUL.get_or_init(|| RandomState::new().hash_one(0u64) | 1),
        hash: 0,
    }
}

/// Parse error from [`deserialize_lineage`]: what went wrong and where.
/// Malformed input — including arbitrary bytes — always surfaces as this
/// error, never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageParseError {
    /// 1-based line number of the offending line; 0 when the log as a whole
    /// is malformed (e.g. missing `::out`).
    pub line: usize,
    /// Description of the problem, including an excerpt of the line.
    pub message: String,
}

impl std::fmt::Display for LineageParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for LineageParseError {}

impl LineageParseError {
    fn whole_log(message: impl Into<String>) -> Self {
        LineageParseError {
            line: 0,
            message: message.into(),
        }
    }
}

/// Bounds the line excerpt embedded in error messages so adversarial inputs
/// do not produce adversarially sized errors.
fn excerpt(line: &str) -> String {
    const MAX: usize = 80;
    if line.len() <= MAX {
        return line.to_string();
    }
    let cut = (0..=MAX)
        .rev()
        .find(|i| line.is_char_boundary(*i))
        .unwrap_or(0);
    format!("{}…", &line[..cut])
}

/// Deserializes a lineage log back into a lineage DAG, rebuilding the patch
/// dictionary. Returns the root item.
pub fn deserialize_lineage(log: &str) -> Result<LinRef, LineageParseError> {
    let mut items: HashMap<u64, LinRef, LogIdHasher> = HashMap::with_hasher(log_id_hasher());
    let mut patches: HashMap<usize, Arc<DedupPatch>> = HashMap::new();
    // In-progress patch state: (idx, block_key, path_key, num_inputs, roots).
    type PatchState = (usize, String, u64, usize, Vec<(String, LinRef)>);
    let mut cur_patch: Option<PatchState> = None;
    let mut out_root: Option<LinRef> = None;

    for (lineno, line) in log.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| LineageParseError {
            line: lineno + 1,
            message: format!("{msg}: '{}'", excerpt(line)),
        };
        let mut toks = line.split(' ');
        let head = toks.next().unwrap_or("");
        match head {
            "::patch" => {
                let [idx, key, path, n] =
                    take_exact(&mut toks).ok_or_else(|| err("malformed ::patch"))?;
                let idx = idx.parse().map_err(|_| err("bad patch idx"))?;
                let key = unescape(key).map_err(|e| err(&e))?.into_owned();
                let path = path.parse().map_err(|_| err("bad path key"))?;
                let n = n.parse().map_err(|_| err("bad num inputs"))?;
                cur_patch = Some((idx, key, path, n, Vec::new()));
            }
            "::root" => {
                let (_, _, _, _, roots) = cur_patch
                    .as_mut()
                    .ok_or_else(|| err("::root outside patch"))?;
                let [name, id] = take_exact(&mut toks).ok_or_else(|| err("malformed ::root"))?;
                let name = unescape(name).map_err(|e| err(&e))?.into_owned();
                let id = parse_ref(id).map_err(|e| err(&e))?;
                let item = items.get(&id).ok_or_else(|| err("unknown root id"))?;
                roots.push((name, item.clone()));
            }
            "::endpatch" => {
                let (idx, key, path, n, roots) = cur_patch
                    .take()
                    .ok_or_else(|| err("::endpatch outside patch"))?;
                patches.insert(idx, DedupPatch::new(key, path, n, roots));
            }
            "::out" => {
                let [id] = take_exact(&mut toks).ok_or_else(|| err("malformed ::out"))?;
                let id = parse_ref(id).map_err(|e| err(&e))?;
                out_root = Some(items.get(&id).ok_or_else(|| err("unknown out id"))?.clone());
            }
            _ => {
                // Item line: (id) KIND ...
                let kind = toks.next().ok_or_else(|| err("malformed item"))?;
                let id = parse_ref(head).map_err(|e| err(&e))?;
                let input = |tok: &str| -> Result<LinRef, LineageParseError> {
                    let iid = parse_ref(tok).map_err(|e| err(&e))?;
                    items.get(&iid).cloned().ok_or_else(|| err("unknown input"))
                };
                let item = match kind {
                    "L" => {
                        let data = unescape(toks.next().unwrap_or("")).map_err(|e| err(&e))?;
                        LineageItem::literal(data)
                    }
                    "P" => {
                        let slot: u32 = toks
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| err("bad placeholder slot"))?;
                        // Inside a patch body, a slot must address one of the
                        // declared patch inputs.
                        if let Some((_, _, _, n, _)) = &cur_patch {
                            if slot as usize >= *n {
                                return Err(err(&format!(
                                    "placeholder slot {slot} out of range for patch with {n} inputs"
                                )));
                            }
                        }
                        LineageItem::placeholder(slot)
                    }
                    "D" => {
                        let (Some(pidx), Some(output)) = (toks.next(), toks.next()) else {
                            return Err(err("malformed dedup item"));
                        };
                        let pidx: usize = pidx.parse().map_err(|_| err("bad patch idx"))?;
                        let output = unescape(output).map_err(|e| err(&e))?;
                        let patch = patches.get(&pidx).ok_or_else(|| err("unknown patch"))?;
                        if patch.root(&output).is_none() {
                            return Err(err(&format!("unknown patch output '{output}'")));
                        }
                        let ins = toks.map(input).collect::<Result<Vec<_>, _>>()?;
                        if ins.len() != patch.num_inputs() {
                            return Err(err(&format!(
                                "dedup item has {} inputs, patch expects {}",
                                ins.len(),
                                patch.num_inputs()
                            )));
                        }
                        LineageItem::dedup(patch.clone(), &output, ins)
                    }
                    "I" => {
                        let opcode = toks.next().ok_or_else(|| err("malformed op item"))?;
                        let opcode = unescape(opcode).map_err(|e| err(&e))?;
                        let (opcode, info) = crate::opcodes::resolve(&opcode);
                        let mut ins = Vec::new();
                        let mut data: Option<Cow<'_, str>> = None;
                        for tok in toks {
                            match tok.strip_prefix(';') {
                                Some(rest) => data = Some(unescape(rest).map_err(|e| err(&e))?),
                                None => ins.push(input(tok)?),
                            }
                        }
                        LineageItem::resolved(opcode, info, data.map(Into::into), ins)
                    }
                    other => return Err(err(&format!("unknown item kind '{other}'"))),
                };
                items.insert(id, item);
            }
        }
    }
    if cur_patch.is_some() {
        return Err(LineageParseError::whole_log(
            "unterminated ::patch (missing ::endpatch)",
        ));
    }
    out_root.ok_or_else(|| LineageParseError::whole_log("lineage log has no ::out line"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::item::lineage_eq;

    fn leaf(name: &str) -> LinRef {
        LineageItem::op_with_data("read", name, vec![])
    }

    #[test]
    fn round_trip_plain_dag() {
        let x = leaf("data/X.csv");
        let y = leaf("data/y.csv");
        let s = LineageItem::op("+", vec![x.clone(), y]);
        let root = LineageItem::op("*", vec![s.clone(), s, x]);
        let log = serialize_lineage(&root);
        let back = deserialize_lineage(&log).unwrap();
        assert!(lineage_eq(&root, &back));
        assert_eq!(root.dag_size(), back.dag_size());
    }

    #[test]
    fn shared_nodes_serialize_once() {
        let x = leaf("X");
        let root = LineageItem::op("+", vec![x.clone(), x.clone()]);
        let log = serialize_lineage(&root);
        let reads = log.lines().filter(|l| l.contains(" I read")).count();
        assert_eq!(reads, 1);
    }

    #[test]
    fn round_trip_with_data_payloads_and_special_chars() {
        let x = leaf("dir with spaces/X file.csv");
        let sl = LineageItem::op_with_data("rightIndex", "0 99 0 14\nextra", vec![x]);
        let log = serialize_lineage(&sl);
        let back = deserialize_lineage(&log).unwrap();
        assert!(lineage_eq(&sl, &back));
        assert_eq!(back.data(), Some("0 99 0 14\nextra"));
        // backslash handling
        let lit = LineageItem::literal("s:a\\b c");
        let log = serialize_lineage(&lit);
        let back = deserialize_lineage(&log).unwrap();
        assert_eq!(back.data(), Some("s:a\\b c"));
    }

    #[test]
    fn round_trip_deduplicated_dag_preserves_compression() {
        // PageRank-style chain of dedup items.
        let p0 = LineageItem::placeholder(0);
        let p1 = LineageItem::placeholder(1);
        let body = LineageItem::op("+", vec![LineageItem::op("ba+*", vec![p0, p1.clone()]), p1]);
        let patch = DedupPatch::new("loop:pr", 3, 2, vec![("p".into(), body)]);
        let g = leaf("G");
        let mut p = leaf("p0");
        for _ in 0..4 {
            p = LineageItem::dedup(patch.clone(), "p", vec![g.clone(), p]);
        }
        let log = serialize_lineage(&p);
        // Patch body serialized once, not per iteration.
        assert_eq!(log.matches("ba+*").count(), 1);
        assert_eq!(log.lines().filter(|l| l.starts_with("::patch")).count(), 1);
        let back = deserialize_lineage(&log).unwrap();
        assert!(lineage_eq(&p, &back));
        assert_eq!(back.dag_size(), p.dag_size());
        // Patch metadata survives.
        if let LineageKind::Dedup(bp) = back.kind() {
            assert_eq!(bp.path_key(), 3);
            assert_eq!(bp.num_inputs(), 2);
            assert_eq!(bp.block_key(), "loop:pr");
        } else {
            panic!("expected dedup root");
        }
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(deserialize_lineage("").is_err());
        assert!(deserialize_lineage("(1) Z whatever\n::out (1)").is_err());
        assert!(deserialize_lineage("(1) I + (9)\n::out (1)").is_err());
        assert!(deserialize_lineage("::root x (1)").is_err());
        assert!(deserialize_lineage("::endpatch").is_err());
        assert!(deserialize_lineage("(1) L x").is_err()); // no ::out
        assert!(deserialize_lineage("(a) L x\n::out (a)").is_err());
    }

    #[test]
    fn round_trip_literals_and_placeholders() {
        let lit = LineageItem::literal("f:2.5");
        let root = LineageItem::op("^", vec![lit.clone(), lit]);
        let back = deserialize_lineage(&serialize_lineage(&root)).unwrap();
        assert!(lineage_eq(&root, &back));
    }
}
