//! Shared plumbing for the `gill-*` command-line tools.
//!
//! Hand-rolled flag parsing (the tools only need `--key value` pairs) and
//! MRT stream helpers shared by `gill-simulate`, `gill-analyze`,
//! `gill-queryd`, `gill-replay` and `gill-collectord`.

use crate::types::{Asn, BgpUpdate, Rib, Timestamp, VpId};
use crate::wire::{BgpMessage, DecodeCtx, MrtReader, MrtRecord, MrtWriter};
use std::collections::HashMap;
use std::path::Path;

/// Minimal `--key value` argument parser.
pub struct Args {
    map: HashMap<String, String>,
    program: String,
}

impl Args {
    /// Parses `std::env::args()`. Flags must come in `--key value` pairs.
    pub fn parse() -> Result<Args, String> {
        let mut it = std::env::args();
        let program = it.next().unwrap_or_else(|| "gill".into());
        let mut map = HashMap::new();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {k:?}"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), v);
        }
        Ok(Args { map, program })
    }

    /// The binary name.
    pub fn program(&self) -> &str {
        &self.program
    }

    /// A required string flag.
    pub fn required(&self, key: &str) -> Result<String, String> {
        self.map
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag.
    pub fn optional(&self, key: &str) -> Option<String> {
        self.map.get(key).cloned()
    }

    /// The MRT decode context `--addpath` names (`v4`, `v6` or `v4,v6`):
    /// an archive written from an ADD-PATH session carries a leading path
    /// identifier on those families' NLRI, which is session state, not
    /// wire-discoverable. Without the flag, NLRI decode classically.
    pub fn addpath_ctx(&self) -> Result<DecodeCtx, String> {
        Ok(match self.optional("addpath") {
            Some(fams) => DecodeCtx::from_families(parse_families(&fams)?),
            None => DecodeCtx::default(),
        })
    }

    /// A numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }
}

/// Parses a family-list flag value (`v4`, `v6`, or `v4,v6`) as used by
/// `--addpath`-style options.
pub fn parse_families(s: &str) -> Result<Vec<crate::wire::AddressFamily>, String> {
    s.split(',')
        .map(|f| match f.trim() {
            "v4" | "ipv4" => Ok(crate::wire::AddressFamily::Ipv4Unicast),
            "v6" | "ipv6" => Ok(crate::wire::AddressFamily::Ipv6Unicast),
            other => Err(format!("unknown address family {other:?} (want v4/v6)")),
        })
        .collect()
}

/// Writes an update stream as MRT BGP4MP_MESSAGE_AS4 records.
pub fn write_updates_mrt(path: &Path, updates: &[BgpUpdate]) -> std::io::Result<usize> {
    let file = std::fs::File::create(path)?;
    let mut w = MrtWriter::new(std::io::BufWriter::new(file));
    for u in updates {
        let record = MrtRecord::bgp4mp(u, Asn(65535))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        w.write_record(&record)?;
    }
    let n = w.records_written();
    w.into_inner()?;
    Ok(n)
}

/// Reads an update stream back from an MRT file (classic sessions — no
/// ADD-PATH).
pub fn read_updates_mrt(path: &Path) -> std::io::Result<Vec<BgpUpdate>> {
    read_updates_mrt_ctx(path, &DecodeCtx::default())
}

/// Reads an update stream whose embedded BGP messages decode under `ctx` —
/// required for archives written from ADD-PATH sessions, where NLRI carry a
/// leading path identifier that a classic decode would misparse.
pub fn read_updates_mrt_ctx(path: &Path, ctx: &DecodeCtx) -> std::io::Result<Vec<BgpUpdate>> {
    let file = std::fs::File::open(path)?;
    let mut r = MrtReader::with_ctx(std::io::BufReader::new(file), *ctx);
    let mut out = Vec::new();
    loop {
        match r.next_record() {
            Ok(Some(rec)) => {
                if let BgpMessage::Update(u) = rec.message {
                    out.extend(u.to_domain(VpId::from_asn(rec.peer_as), rec.time));
                }
            }
            Ok(None) => break,
            Err(e) => return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
        }
    }
    Ok(out)
}

/// Writes per-VP RIBs as a TABLE_DUMP_V2 snapshot.
pub fn write_ribs_mrt(
    path: &Path,
    ribs: &HashMap<VpId, Rib>,
    at: Timestamp,
) -> std::io::Result<usize> {
    let dump = crate::wire::TableDump::from_ribs(ribs.iter());
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    dump.write_mrt(&mut w, at)
}

/// Reads a TABLE_DUMP_V2 snapshot into per-VP RIBs.
pub fn read_ribs_mrt(path: &Path) -> std::io::Result<HashMap<VpId, Rib>> {
    let bytes = std::fs::read(path)?;
    let dump = crate::wire::TableDump::read_mrt(&bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(dump.to_ribs().into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn updates_mrt_file_roundtrip() {
        let topo = TopologyBuilder::artificial(80, 5).build();
        let mut sim = Simulator::new(&topo);
        let vps = topo.pick_vps(0.2, 3);
        let s = sim.synthesize_stream(&vps, StreamConfig::default().events(15).seed(1));
        let dir = std::env::temp_dir().join("gill-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("updates.mrt");
        let n = write_updates_mrt(&path, &s.updates).unwrap();
        assert_eq!(n, s.updates.len());
        let back = read_updates_mrt(&path).unwrap();
        assert_eq!(back.len(), s.updates.len());
        for (a, b) in back.iter().zip(&s.updates) {
            assert_eq!(a.prefix, b.prefix);
            assert_eq!(a.path, b.path);
            assert_eq!(a.vp, b.vp);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ribs_mrt_file_roundtrip() {
        let topo = TopologyBuilder::artificial(60, 6).build();
        let sim = Simulator::new(&topo);
        let vps = topo.pick_vps(0.1, 3);
        let ribs = sim.rib_snapshot(&vps, Timestamp::from_secs(5));
        let dir = std::env::temp_dir().join("gill-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ribs.mrt");
        write_ribs_mrt(&path, &ribs, Timestamp::from_secs(5)).unwrap();
        let back = read_ribs_mrt(&path).unwrap();
        assert_eq!(back.len(), ribs.len());
        for (vp, rib) in &ribs {
            assert_eq!(back[vp].len(), rib.len());
        }
        std::fs::remove_file(&path).ok();
    }
}
