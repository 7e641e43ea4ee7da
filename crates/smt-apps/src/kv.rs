//! A Redis-like in-memory key-value store (paper §5.3).
//!
//! Redis adopts a single-threaded design with an epoll event loop; the paper
//! ports it to Homa/SMT by registering the SMT socket in the same loop, so TCP
//! and SMT clients share one database.  This module provides the store, a binary
//! request/response encoding (standing in for RESP), and per-operation compute
//! cost estimates used by the Fig. 8 workload model.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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

/// The single-threaded in-memory store.
#[derive(Debug, Default)]
pub struct KvStore {
    data: HashMap<String, Vec<u8>>,
    /// Operations served.
    pub operations: u64,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-loads `records` keys of `value_size` bytes (the YCSB load phase).
    pub fn load(&mut self, records: usize, value_size: usize) {
        for i in 0..records {
            self.data
                .insert(format!("user{i:08}"), vec![(i % 251) as u8; value_size]);
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
                Some(v) => KvResponse::Value(v.clone()),
                None => KvResponse::NotFound,
            },
            KvRequest::Put { key, value } => {
                self.data.insert(key.clone(), value.clone());
                KvResponse::Ok
            }
            KvRequest::Scan { start, count } => {
                // Scans over a hash map are approximated by key order (YCSB-C
                // does the same for hash-backed stores).
                let mut keys: Vec<&String> = self.data.keys().filter(|k| *k >= start).collect();
                keys.sort();
                let values = keys
                    .into_iter()
                    .take(*count as usize)
                    .filter_map(|k| self.data.get(k).cloned())
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

    #[test]
    fn compute_cost_scales_with_value_size() {
        assert!(KvStore::compute_cost_ns(4096) > KvStore::compute_cost_ns(64));
    }
}
