//! A Redis-like in-memory key-value store (paper §5.3).
//!
//! Redis adopts a single-threaded design with an epoll event loop; the paper
//! ports it to Homa/SMT by registering the SMT socket in the same loop, so TCP
//! and SMT clients share one database.  This module provides the store, a binary
//! request/response encoding (standing in for RESP), and per-operation compute
//! cost estimates used by the Fig. 8 workload model.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Bound;

/// A key-value request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvRequest {
    /// Read a key.
    Get {
        /// Key to read.
        key: String,
    },
    /// Write a key.
    Put {
        /// Key to write.
        key: String,
        /// Value to store.
        value: Vec<u8>,
    },
    /// Read a range of keys starting at `start` (YCSB scan).
    Scan {
        /// First key of the range.
        start: String,
        /// Number of keys to return.
        count: u32,
    },
    /// Delete a key.
    Delete {
        /// Key to delete.
        key: String,
    },
}

/// A key-value response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvResponse {
    /// Value found.
    Value(Vec<u8>),
    /// Multiple values (scan result).
    Values(Vec<Vec<u8>>),
    /// Operation succeeded with no payload.
    Ok,
    /// Key not found.
    NotFound,
}

impl KvRequest {
    /// Serializes the request (simple length-prefixed binary encoding).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            KvRequest::Get { key } => {
                out.push(1);
                put_bytes(&mut out, key.as_bytes());
            }
            KvRequest::Put { key, value } => {
                out.push(2);
                put_bytes(&mut out, key.as_bytes());
                put_bytes(&mut out, value);
            }
            KvRequest::Scan { start, count } => {
                out.push(3);
                put_bytes(&mut out, start.as_bytes());
                out.extend_from_slice(&count.to_be_bytes());
            }
            KvRequest::Delete { key } => {
                out.push(4);
                put_bytes(&mut out, key.as_bytes());
            }
        }
        out
    }

    /// Parses a request.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let (&tag, mut rest) = buf.split_first()?;
        match tag {
            1 => Some(KvRequest::Get {
                key: String::from_utf8(take_bytes(&mut rest)?).ok()?,
            }),
            2 => Some(KvRequest::Put {
                key: String::from_utf8(take_bytes(&mut rest)?).ok()?,
                value: take_bytes(&mut rest)?,
            }),
            3 => {
                let start = String::from_utf8(take_bytes(&mut rest)?).ok()?;
                let count = u32::from_be_bytes(rest.get(..4)?.try_into().ok()?);
                Some(KvRequest::Scan { start, count })
            }
            4 => Some(KvRequest::Delete {
                key: String::from_utf8(take_bytes(&mut rest)?).ok()?,
            }),
            _ => None,
        }
    }
}

impl KvResponse {
    /// Serializes the response.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            KvResponse::Value(v) => {
                out.push(1);
                put_bytes(&mut out, v);
            }
            KvResponse::Values(vs) => {
                out.push(2);
                out.extend_from_slice(&(vs.len() as u32).to_be_bytes());
                for v in vs {
                    put_bytes(&mut out, v);
                }
            }
            KvResponse::Ok => out.push(3),
            KvResponse::NotFound => out.push(4),
        }
        out
    }

    /// Parses a response.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let (&tag, mut rest) = buf.split_first()?;
        match tag {
            1 => Some(KvResponse::Value(take_bytes(&mut rest)?)),
            2 => {
                let n = u32::from_be_bytes(rest.get(..4)?.try_into().ok()?) as usize;
                rest = &rest[4..];
                // `n` is wire data: every element needs at least its 4-byte
                // length prefix, so the remaining input bounds the reservation.
                let mut vs = Vec::with_capacity(n.min(rest.len() / 4));
                for _ in 0..n {
                    vs.push(take_bytes(&mut rest)?);
                }
                Some(KvResponse::Values(vs))
            }
            3 => Some(KvResponse::Ok),
            4 => Some(KvResponse::NotFound),
            _ => None,
        }
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_be_bytes());
    out.extend_from_slice(b);
}

fn take_bytes(rest: &mut &[u8]) -> Option<Vec<u8>> {
    let n = u32::from_be_bytes(rest.get(..4)?.try_into().ok()?) as usize;
    let out = rest.get(4..4 + n)?.to_vec();
    *rest = &rest[4 + n..];
    Some(out)
}

/// The single-threaded in-memory store, ordered by key so a scan is a range
/// walk.  Values are shared `Bytes`: the load phase's records point at one
/// buffer per distinct fill byte.
#[derive(Debug, Default)]
pub struct KvStore {
    data: BTreeMap<String, Bytes>,
    /// Operations served.
    pub operations: u64,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-loads `records` keys of `value_size` bytes (the YCSB load phase):
    /// record `i` holds `value_size` copies of byte `i % 251`.
    pub fn load(&mut self, records: usize, value_size: usize) {
        let fills: Vec<Bytes> = (0..records.min(251))
            .map(|b| Bytes::from(vec![b as u8; value_size]))
            .collect();
        for i in 0..records {
            self.data
                .insert(format!("user{i:08}"), fills[i % 251].clone());
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Executes one request.
    pub fn execute(&mut self, request: &KvRequest) -> KvResponse {
        self.operations += 1;
        match request {
            KvRequest::Get { key } => match self.data.get(key) {
                Some(v) => KvResponse::Value(v.to_vec()),
                None => KvResponse::NotFound,
            },
            KvRequest::Put { key, value } => {
                self.data.insert(key.clone(), Bytes::copy_from_slice(value));
                KvResponse::Ok
            }
            KvRequest::Scan { start, count } => {
                let values = self
                    .data
                    .range::<str, _>((Bound::Included(start.as_str()), Bound::Unbounded))
                    .take(*count as usize)
                    .map(|(_, v)| v.to_vec())
                    .collect();
                KvResponse::Values(values)
            }
            KvRequest::Delete { key } => {
                if self.data.remove(key).is_some() {
                    KvResponse::Ok
                } else {
                    KvResponse::NotFound
                }
            }
        }
    }

    /// Handles an encoded request, producing an encoded response (the form used
    /// when requests arrive over an SMT or TCP socket).
    pub fn handle_wire(&mut self, request: &[u8]) -> Vec<u8> {
        match KvRequest::decode(request) {
            Some(req) => self.execute(&req).encode(),
            None => KvResponse::NotFound.encode(),
        }
    }

    /// Estimated single-threaded server compute per operation in nanoseconds
    /// (request parsing + hash lookup + response construction), used by the
    /// Fig. 8 workload model.  Scales mildly with the value size.
    pub fn compute_cost_ns(value_size: usize) -> u64 {
        1_800 + (value_size as f64 * 0.12) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_response_roundtrip() {
        let reqs = [
            KvRequest::Get { key: "a".into() },
            KvRequest::Put {
                key: "b".into(),
                value: vec![1, 2, 3],
            },
            KvRequest::Scan {
                start: "user".into(),
                count: 10,
            },
            KvRequest::Delete { key: "c".into() },
        ];
        for r in &reqs {
            assert_eq!(KvRequest::decode(&r.encode()).unwrap(), *r);
        }
        let resps = [
            KvResponse::Value(vec![9; 100]),
            KvResponse::Values(vec![vec![1], vec![2, 2]]),
            KvResponse::Ok,
            KvResponse::NotFound,
        ];
        for r in &resps {
            assert_eq!(KvResponse::decode(&r.encode()).unwrap(), *r);
        }
    }

    #[test]
    fn store_operations() {
        let mut store = KvStore::new();
        store.load(100, 64);
        assert_eq!(store.len(), 100);

        let get = KvRequest::Get {
            key: "user00000001".into(),
        };
        assert!(matches!(store.execute(&get), KvResponse::Value(v) if v.len() == 64));

        let put = KvRequest::Put {
            key: "new".into(),
            value: vec![5; 10],
        };
        assert_eq!(store.execute(&put), KvResponse::Ok);
        assert_eq!(
            store.execute(&KvRequest::Get { key: "new".into() }),
            KvResponse::Value(vec![5; 10])
        );

        let scan = KvRequest::Scan {
            start: "user00000090".into(),
            count: 5,
        };
        assert!(matches!(store.execute(&scan), KvResponse::Values(v) if v.len() == 5));

        assert_eq!(
            store.execute(&KvRequest::Delete { key: "new".into() }),
            KvResponse::Ok
        );
        assert_eq!(
            store.execute(&KvRequest::Get { key: "new".into() }),
            KvResponse::NotFound
        );
        assert!(store.operations >= 5);
    }

    #[test]
    fn wire_handling_tolerates_garbage() {
        let mut store = KvStore::new();
        let resp = store.handle_wire(&[0xff, 1, 2]);
        assert_eq!(KvResponse::decode(&resp).unwrap(), KvResponse::NotFound);
    }

    #[test]
    fn oversized_element_count_is_rejected_without_reserving_for_it() {
        // A Values response declaring u32::MAX elements with no bytes behind
        // it: the count must not size an allocation (a 96 GB reservation
        // aborts the process on a memory-limited host).
        assert_eq!(KvResponse::decode(&[2, 0xff, 0xff, 0xff, 0xff]), None);
    }

    /// The scan as a hash-backed store answers it: every key at or after
    /// `start`, sorted, the first `count` of them.
    fn sorted_filter_scan(store: &KvStore, start: &str, count: usize) -> Vec<Vec<u8>> {
        let mut keys: Vec<&String> = store.data.keys().filter(|k| k.as_str() >= start).collect();
        keys.sort();
        keys.into_iter()
            .take(count)
            .map(|k| store.data[k].to_vec())
            .collect()
    }

    #[test]
    fn scan_is_the_sorted_filter_of_the_keys() {
        let mut store = KvStore::new();
        store.load(600, 8);
        store.execute(&KvRequest::Put {
            key: "user00000300x".into(),
            value: vec![7; 3],
        });
        for start in [
            "",              // before the first key
            "a",             // before the first key
            "user00000100",  // on a key
            "user0000010",   // between keys: a prefix of ten of them
            "user00000300",  // on a key that the put key extends
            "user00000300a", // between the put key and its successor
            "user00000599",  // on the last key
            "user00000599a", // past the last key
            "zzz",           // past the last key
        ] {
            for count in [0, 1, 5, 1000] {
                let got = store.execute(&KvRequest::Scan {
                    start: start.into(),
                    count: count as u32,
                });
                let want = KvResponse::Values(sorted_filter_scan(&store, start, count));
                assert_eq!(got, want, "scan from {start:?}, count {count}");
            }
        }
    }

    #[test]
    fn a_put_leaves_keys_sharing_its_fill_buffer_alone() {
        let mut store = KvStore::new();
        store.load(600, 16);
        // Records 0, 251 and 502 were loaded from one shared fill buffer.
        store.execute(&KvRequest::Put {
            key: "user00000251".into(),
            value: vec![9; 16],
        });
        for (key, fill) in [
            ("user00000000", 0),
            ("user00000251", 9),
            ("user00000502", 0),
        ] {
            assert_eq!(
                store.execute(&KvRequest::Get { key: key.into() }),
                KvResponse::Value(vec![fill; 16]),
                "{key}"
            );
        }
    }

    #[test]
    fn compute_cost_scales_with_value_size() {
        assert!(KvStore::compute_cost_ns(4096) > KvStore::compute_cost_ns(64));
    }
}
