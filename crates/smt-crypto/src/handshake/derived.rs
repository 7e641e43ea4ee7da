//! Path-secret amortized handshakes and traffic-key rekeying.
//!
//! One full (or 0-RTT) handshake between a pair of hosts mints a **path
//! secret** from the resumption master secret; every subsequent connection
//! between the same hosts derives fresh per-connection keys from it with a
//! single flight in each direction and **zero extra round trips** — early
//! data rides on the first flight exactly as in the SMT-ticket 0-RTT
//! exchange. This is the amortization strategy of s2n-quic-dc's path-secret
//! map, adapted to SMT's in-band control flights.
//!
//! The derivation tree hangs off the path secret `S`:
//!
//! ```text
//! resumption_master ──"smt path"──> S        (both sides, after 1st handshake)
//!                     "smt path id"─> path id (16 bytes, on the wire)
//!
//! S ──"derived confirm"──> confirm key      (MACs both derived flights)
//!   ──"derived early" (client_random)──> early-data traffic secret (seq 0)
//!   ──"derived master" (client_random ‖ server_random)──> connection master
//!         ├──"derived c ap"──> client application traffic secret
//!         ├──"derived s ap"──> server application traffic secret
//!         └──"derived rm" ──> resumption master of the derived session
//! ```
//!
//! Both flights are authenticated with an HMAC under the confirm key, so a
//! derived connection proves *mutual* possession of the path secret without
//! any public-key operation — the entire exchange is symmetric crypto.
//!
//! Long-lived connections additionally rekey with [`ratchet_secret`]
//! (RFC 8446 §7.2 `application_traffic_secret_N+1`): the sender bumps its
//! key **epoch** (carried in the wire overlay) and resets its record
//! sequence numbers, so composite sequence numbers never exhaust.

use super::zero_rtt::ReplayCache;
use super::SessionKeys;
use crate::cert::random_bytes;
use crate::codec::{Reader, Writer};
use crate::key_schedule::{hkdf_expand_label, hmac, Secret, HASH_LEN};
use crate::record::RecordProtector;
use crate::seqno::SeqnoLayout;
use crate::suite::CipherSuite;
use crate::{CryptoError, CryptoResult};
use smt_wire::ContentType;
use std::collections::{HashMap, VecDeque};

/// First byte of a derived-handshake hello flight.
pub const TYPE_DERIVED_HELLO: u8 = 0xF1;
/// First byte of a derived-handshake accept flight.
pub const TYPE_DERIVED_ACCEPT: u8 = 0xF2;
/// First byte of a derived-handshake reject flight.
pub const TYPE_DERIVED_REJECT: u8 = 0xF3;

/// Length of the path-secret identifier carried in the hello flight.
pub const PATH_ID_LEN: usize = 16;

/// Returns true if `flight` starts like a derived-handshake flight (as
/// opposed to a TLS handshake message or an in-band SMT ticket).
pub fn is_derived_flight(flight: &[u8]) -> bool {
    matches!(
        flight.first(),
        Some(&TYPE_DERIVED_HELLO) | Some(&TYPE_DERIVED_ACCEPT) | Some(&TYPE_DERIVED_REJECT)
    )
}

/// A secret shared by a pair of hosts, minted from the first full handshake
/// between them, from which later connections derive per-connection keys.
#[derive(Clone)]
pub struct PathSecret {
    /// Wire identifier of this path secret (carried in derived hellos).
    pub id: [u8; PATH_ID_LEN],
    /// The peer this secret is shared with, or empty for a peer that
    /// presented no identity (found only by wire id).
    pub peer: String,
    /// Cipher suite negotiated by the minting handshake.
    pub suite: CipherSuite,
    /// Composite-sequence-number layout negotiated by the minting handshake.
    pub seqno_layout: SeqnoLayout,
    /// Maximum message size negotiated by the minting handshake.
    pub max_message_size: u32,
    /// Authenticated peer identity inherited from the minting handshake.
    pub peer_identity: Option<String>,
    secret: Secret,
}

impl std::fmt::Debug for PathSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathSecret")
            .field("id", &self.id)
            .field("peer", &self.peer)
            .field("suite", &self.suite)
            .finish_non_exhaustive()
    }
}

impl PathSecret {
    /// Mints the path secret for `peer` from a completed handshake.
    ///
    /// Both sides derive the same secret and identifier from the shared
    /// resumption master secret, so no extra wire exchange is needed.
    pub fn mint(keys: &SessionKeys, peer: &str) -> Self {
        let secret = Secret::from_slice(&hkdf_expand_label(
            &keys.resumption_master,
            "smt path",
            b"",
            HASH_LEN,
        ))
        .expect("hash-sized output");
        let id_bytes = hkdf_expand_label(&keys.resumption_master, "smt path id", b"", PATH_ID_LEN);
        let mut id = [0u8; PATH_ID_LEN];
        id.copy_from_slice(&id_bytes);
        Self {
            id,
            peer: peer.to_string(),
            suite: keys.suite,
            seqno_layout: keys.seqno_layout,
            max_message_size: keys.max_message_size,
            peer_identity: keys.peer_identity.clone(),
            secret,
        }
    }

    fn confirm_key(&self) -> Secret {
        Secret::from_slice(&hkdf_expand_label(
            &self.secret,
            "derived confirm",
            b"",
            HASH_LEN,
        ))
        .expect("hash-sized output")
    }

    fn early_secret(&self, client_random: &[u8; 32]) -> Secret {
        Secret::from_slice(&hkdf_expand_label(
            &self.secret,
            "derived early",
            client_random,
            HASH_LEN,
        ))
        .expect("hash-sized output")
    }

    fn connection_secrets(
        &self,
        client_random: &[u8; 32],
        server_random: &[u8; 32],
    ) -> (Secret, Secret, Secret) {
        let mut randoms = Vec::with_capacity(64);
        randoms.extend_from_slice(client_random);
        randoms.extend_from_slice(server_random);
        let master = Secret::from_slice(&hkdf_expand_label(
            &self.secret,
            "derived master",
            &randoms,
            HASH_LEN,
        ))
        .expect("hash-sized output");
        let client_ap =
            Secret::from_slice(&hkdf_expand_label(&master, "derived c ap", b"", HASH_LEN))
                .expect("hash-sized output");
        let server_ap =
            Secret::from_slice(&hkdf_expand_label(&master, "derived s ap", b"", HASH_LEN))
                .expect("hash-sized output");
        let resumption =
            Secret::from_slice(&hkdf_expand_label(&master, "derived rm", b"", HASH_LEN))
                .expect("hash-sized output");
        (client_ap, server_ap, resumption)
    }

    fn keys(
        &self,
        is_client: bool,
        client_random: &[u8; 32],
        server_random: &[u8; 32],
        early_data_accepted: bool,
    ) -> SessionKeys {
        // The derived handshake's only real crypto is this secret
        // derivation; time it under the matching full-handshake op so
        // Table 2 can report measured (not assumed-zero) derived phases.
        let mut timings = super::timing::HandshakeTimings::new();
        let op = if is_client {
            super::timing::OpId::C2_3SecretDerive
        } else {
            super::timing::OpId::S2_6SecretDerive
        };
        let (client_ap, server_ap, resumption) =
            timings.time(op, || self.connection_secrets(client_random, server_random));
        let (send_secret, recv_secret) = if is_client {
            (client_ap, server_ap)
        } else {
            (server_ap, client_ap)
        };
        SessionKeys {
            suite: self.suite,
            is_client,
            send_secret,
            recv_secret,
            resumption_master: resumption,
            seqno_layout: self.seqno_layout,
            max_message_size: self.max_message_size,
            peer_identity: self.peer_identity.clone(),
            early_data_accepted,
            resumed: true,
            forward_secret: false,
            timings,
            issued_ticket: None,
        }
    }
}

/// A bounded per-host map of path secrets, keyed by wire identifier (the
/// server side of a derived handshake only sees the id) with a secondary
/// index by peer name for named peers (the client side looks up by name).
///
/// Once full, inserting evicts the *oldest* entry (insertion order) and
/// counts it — the same bounded-state discipline as the listener's
/// connection table and the 0-RTT [`ReplayCache`].
#[derive(Debug, Default)]
pub struct PathSecretMap {
    by_id: HashMap<[u8; PATH_ID_LEN], PathSecret>,
    by_peer: HashMap<String, [u8; PATH_ID_LEN]>,
    order: VecDeque<[u8; PATH_ID_LEN]>,
    capacity: usize,
    evictions: u64,
}

impl PathSecretMap {
    /// Creates a map bounded to `capacity` path secrets.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Inserts the path secret, replacing a named peer's previous secret
    /// (and any entry with the same id), and evicting the oldest entry if
    /// the map is at capacity.
    pub fn insert(&mut self, secret: PathSecret) {
        if let Some(old_id) = self.by_peer.get(&secret.peer).copied() {
            self.unlink(&old_id);
        }
        self.unlink(&secret.id);
        while self.by_id.len() >= self.capacity.max(1) {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if let Some(old) = self.by_id.remove(&oldest) {
                self.by_peer.remove(&old.peer);
                self.evictions += 1;
            }
        }
        self.order.push_back(secret.id);
        if !secret.peer.is_empty() {
            self.by_peer.insert(secret.peer.clone(), secret.id);
        }
        self.by_id.insert(secret.id, secret);
    }

    /// Drops the entry with wire id `id` from every index.
    fn unlink(&mut self, id: &[u8; PATH_ID_LEN]) -> Option<PathSecret> {
        let old = self.by_id.remove(id)?;
        self.order.retain(|o| o != id);
        self.by_peer.remove(&old.peer);
        Some(old)
    }

    /// Looks up the path secret shared with `peer`.
    pub fn get(&self, peer: &str) -> Option<&PathSecret> {
        self.by_peer.get(peer).and_then(|id| self.by_id.get(id))
    }

    /// Looks up a path secret by its wire identifier.
    pub fn lookup_id(&self, id: &[u8; PATH_ID_LEN]) -> Option<&PathSecret> {
        self.by_id.get(id)
    }

    /// Removes and returns the path secret shared with `peer`.
    pub fn remove(&mut self, peer: &str) -> Option<PathSecret> {
        let id = self.by_peer.get(peer).copied()?;
        self.unlink(&id)
    }

    /// Number of path secrets currently held.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True when no path secrets are held.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Number of entries evicted to stay within the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

fn flight_mac(confirm: &Secret, tag: u8, parts: &[&[u8]]) -> [u8; HASH_LEN] {
    let mut data = vec![tag];
    for p in parts {
        data.extend_from_slice(p);
    }
    hmac(confirm.as_bytes(), &data)
}

fn read_array<const N: usize>(r: &mut Reader<'_>, what: &'static str) -> CryptoResult<[u8; N]> {
    let v = r.get_vec16()?;
    if v.len() != N {
        return Err(CryptoError::InvalidLength {
            what,
            expected: N,
            got: v.len(),
        });
    }
    let mut out = [0u8; N];
    out.copy_from_slice(&v);
    Ok(out)
}

/// Client side of a path-secret derived handshake.
///
/// Built with [`DerivedClient::start`], which emits the hello flight;
/// completed by [`DerivedClient::on_server_flight`].
pub struct DerivedClient {
    path: PathSecret,
    client_random: [u8; 32],
    early_data_sent: bool,
}

impl std::fmt::Debug for DerivedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DerivedClient")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

/// Outcome of processing the server's derived-handshake flight.
#[derive(Debug)]
pub enum DerivedClientOutcome {
    /// The server accepted: the connection keys are ready.
    Complete(Box<SessionKeys>),
    /// The server no longer holds the path secret (evicted or restarted);
    /// the caller must fall back to a full or ticket handshake.
    Rejected {
        /// Human-readable reason from the reject flight.
        reason: String,
    },
}

impl DerivedClient {
    /// Starts a derived handshake over `path`, attaching `early_data`
    /// (possibly empty) encrypted under the early traffic secret.
    pub fn start(path: &PathSecret, early_data: &[u8]) -> CryptoResult<(Self, Vec<u8>)> {
        let client_random: [u8; 32] = random_bytes(32).try_into().expect("32 bytes");
        let confirm = path.confirm_key();
        let mac = flight_mac(&confirm, 0x01, &[&path.id, &client_random]);

        let mut w = Writer::new();
        w.put_u8(TYPE_DERIVED_HELLO);
        w.put_vec16(&path.id);
        w.put_vec16(&client_random);
        w.put_vec16(&mac);
        if early_data.is_empty() {
            w.put_vec32(&[]);
        } else {
            let cipher =
                RecordProtector::from_secret(path.suite, &path.early_secret(&client_random))?;
            let record = cipher.encrypt_record(0, ContentType::ApplicationData, early_data)?;
            w.put_vec32(&record);
        }
        Ok((
            Self {
                path: path.clone(),
                client_random,
                early_data_sent: !early_data.is_empty(),
            },
            w.finish(),
        ))
    }

    /// Processes the server's accept or reject flight.
    pub fn on_server_flight(&self, flight: &[u8]) -> CryptoResult<DerivedClientOutcome> {
        let mut r = Reader::new(flight);
        match r.get_u8()? {
            TYPE_DERIVED_ACCEPT => {
                let server_random: [u8; 32] = read_array(&mut r, "server random")?;
                let mac: [u8; HASH_LEN] = read_array(&mut r, "accept mac")?;
                r.expect_end()?;
                let confirm = self.path.confirm_key();
                let expected = flight_mac(&confirm, 0x02, &[&self.client_random, &server_random]);
                if mac != expected {
                    return Err(CryptoError::handshake(
                        "derived accept MAC verification failed",
                    ));
                }
                Ok(DerivedClientOutcome::Complete(Box::new(self.path.keys(
                    true,
                    &self.client_random,
                    &server_random,
                    self.early_data_sent,
                ))))
            }
            TYPE_DERIVED_REJECT => {
                let reason = String::from_utf8_lossy(&r.get_vec16()?).into_owned();
                r.expect_end()?;
                Ok(DerivedClientOutcome::Rejected { reason })
            }
            t => Err(CryptoError::handshake(format!(
                "unexpected derived flight type {t:#x}"
            ))),
        }
    }
}

/// Output of the server side of an accepted derived handshake.
pub struct DerivedServerResponse {
    /// The connection keys (server perspective).
    pub keys: SessionKeys,
    /// The accept flight to send back.
    pub flight: Vec<u8>,
    /// Decrypted early data from the hello flight, if any was attached.
    pub early_data: Option<Vec<u8>>,
}

impl std::fmt::Debug for DerivedServerResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DerivedServerResponse")
            .field("early_data", &self.early_data.as_ref().map(|d| d.len()))
            .finish_non_exhaustive()
    }
}

/// Outcome of the server side of a derived handshake.
#[derive(Debug)]
pub enum DerivedServerOutcome {
    /// The hello verified against a held path secret; connection ready.
    Accepted(Box<DerivedServerResponse>),
    /// No path secret with the offered id is held (evicted or never minted);
    /// `reject` is the flight telling the client to fall back.
    Unknown {
        /// The reject flight to send back.
        reject: Vec<u8>,
    },
}

/// Builds a reject flight with a human-readable reason.
pub fn derived_reject_flight(reason: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(TYPE_DERIVED_REJECT);
    w.put_vec16(reason.as_bytes());
    w.finish()
}

/// Server side of the derived handshake: verifies a hello flight against the
/// path-secret map, rejects replayed client randoms, and derives the
/// connection keys.
pub fn derived_server_respond(
    map: &PathSecretMap,
    replay: &mut ReplayCache,
    flight: &[u8],
) -> CryptoResult<DerivedServerOutcome> {
    let mut r = Reader::new(flight);
    if r.get_u8()? != TYPE_DERIVED_HELLO {
        return Err(CryptoError::handshake("expected derived hello"));
    }
    let path_id: [u8; PATH_ID_LEN] = read_array(&mut r, "path id")?;
    let client_random: [u8; 32] = read_array(&mut r, "client random")?;
    let mac: [u8; HASH_LEN] = read_array(&mut r, "hello mac")?;
    let early_record = r.get_vec32()?;
    r.expect_end()?;

    let Some(path) = map.lookup_id(&path_id) else {
        return Ok(DerivedServerOutcome::Unknown {
            reject: derived_reject_flight("unknown path secret"),
        });
    };
    let confirm = path.confirm_key();
    let expected = flight_mac(&confirm, 0x01, &[&path_id, &client_random]);
    if mac != expected {
        return Err(CryptoError::handshake(
            "derived hello MAC verification failed",
        ));
    }
    // Anti-replay: the hello (plus its early data) is replayable wholesale,
    // exactly like a 0-RTT ClientHello, so client randoms share the same
    // bounded replay-cache discipline (§4.5.3 / RFC 8446 §8).
    if !replay.check_and_insert(&client_random) {
        return Err(CryptoError::Replay("repeated derived client random".into()));
    }

    let early_data = if early_record.is_empty() {
        None
    } else {
        let mut cipher =
            RecordProtector::from_secret(path.suite, &path.early_secret(&client_random))?;
        let (plain, _) = cipher.decrypt_record(0, &early_record)?;
        Some(plain.plaintext)
    };

    let server_random: [u8; 32] = random_bytes(32).try_into().expect("32 bytes");
    let accept_mac = flight_mac(&confirm, 0x02, &[&client_random, &server_random]);
    let mut w = Writer::new();
    w.put_u8(TYPE_DERIVED_ACCEPT);
    w.put_vec16(&server_random);
    w.put_vec16(&accept_mac);

    let keys = path.keys(false, &client_random, &server_random, early_data.is_some());
    Ok(DerivedServerOutcome::Accepted(Box::new(
        DerivedServerResponse {
            keys,
            flight: w.finish(),
            early_data,
        },
    )))
}

/// Ratchets a traffic secret forward one key epoch:
/// `application_traffic_secret_N+1` per RFC 8446 §7.2.
///
/// Sender and receiver each apply this to their own copy of the traffic
/// secret when the epoch advances; record sequence numbers restart at zero
/// under the new epoch, so the composite sequence space never exhausts.
pub fn ratchet_secret(secret: &Secret) -> Secret {
    Secret::from_slice(&hkdf_expand_label(secret, "traffic upd", b"", HASH_LEN))
        .expect("hash-sized output")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use crate::handshake::{establish, ClientConfig, ServerConfig};

    fn minted_pair() -> (PathSecret, PathSecret) {
        let ca = CertificateAuthority::new("test-ca");
        let identity = ca.issue_identity("server.dc.local");
        let client_cfg = ClientConfig::new(ca.verifying_key(), "server.dc.local");
        let server_cfg = ServerConfig::new(identity, ca.verifying_key());
        let (ck, sk) = establish(client_cfg, server_cfg).expect("handshake");
        (
            PathSecret::mint(&ck, "server.dc.local"),
            PathSecret::mint(&sk, "client.dc.local"),
        )
    }

    #[test]
    fn both_sides_mint_identical_path_material() {
        let (cp, sp) = minted_pair();
        assert_eq!(cp.id, sp.id);
        assert_eq!(cp.secret.as_bytes(), sp.secret.as_bytes());
        assert_eq!(cp.suite, sp.suite);
    }

    #[test]
    fn derived_handshake_completes_with_matching_keys() {
        let (cp, sp) = minted_pair();
        let mut map = PathSecretMap::new(8);
        map.insert(sp);
        let mut replay = ReplayCache::new(64);

        let (client, hello) = DerivedClient::start(&cp, b"first request").unwrap();
        let DerivedServerOutcome::Accepted(resp) =
            derived_server_respond(&map, &mut replay, &hello).unwrap()
        else {
            panic!("expected accept");
        };
        assert_eq!(resp.early_data.as_deref(), Some(&b"first request"[..]));

        let DerivedClientOutcome::Complete(ck) = client.on_server_flight(&resp.flight).unwrap()
        else {
            panic!("expected completion");
        };
        assert!(ck.resumed);
        assert!(!ck.forward_secret);
        assert_eq!(ck.send_secret, resp.keys.recv_secret);
        assert_eq!(ck.recv_secret, resp.keys.send_secret);
        assert_ne!(ck.send_secret, ck.recv_secret);
    }

    #[test]
    fn two_derived_connections_get_independent_keys() {
        let (cp, sp) = minted_pair();
        let mut map = PathSecretMap::new(8);
        map.insert(sp);
        let mut replay = ReplayCache::new(64);

        let run = |map: &PathSecretMap, replay: &mut ReplayCache| {
            let (client, hello) = DerivedClient::start(&cp, b"").unwrap();
            let DerivedServerOutcome::Accepted(resp) =
                derived_server_respond(map, replay, &hello).unwrap()
            else {
                panic!("expected accept");
            };
            let DerivedClientOutcome::Complete(ck) = client.on_server_flight(&resp.flight).unwrap()
            else {
                panic!("expected completion");
            };
            ck
        };
        let k1 = run(&map, &mut replay);
        let k2 = run(&map, &mut replay);
        assert_ne!(k1.send_secret, k2.send_secret);
        assert_ne!(k1.resumption_master, k2.resumption_master);
    }

    #[test]
    fn replayed_hello_rejected() {
        let (cp, sp) = minted_pair();
        let mut map = PathSecretMap::new(8);
        map.insert(sp);
        let mut replay = ReplayCache::new(64);
        let (_client, hello) = DerivedClient::start(&cp, b"replay me").unwrap();
        assert!(derived_server_respond(&map, &mut replay, &hello).is_ok());
        assert!(matches!(
            derived_server_respond(&map, &mut replay, &hello),
            Err(CryptoError::Replay(_))
        ));
    }

    #[test]
    fn unknown_path_id_yields_reject_and_client_falls_back() {
        let (cp, _sp) = minted_pair();
        let map = PathSecretMap::new(8); // server never held / evicted the secret
        let mut replay = ReplayCache::new(64);
        let (client, hello) = DerivedClient::start(&cp, b"").unwrap();
        let DerivedServerOutcome::Unknown { reject } =
            derived_server_respond(&map, &mut replay, &hello).unwrap()
        else {
            panic!("expected unknown-path outcome");
        };
        let DerivedClientOutcome::Rejected { reason } = client.on_server_flight(&reject).unwrap()
        else {
            panic!("expected rejection");
        };
        assert!(reason.contains("unknown"));
    }

    #[test]
    fn tampered_flights_rejected() {
        let (cp, sp) = minted_pair();
        let mut map = PathSecretMap::new(8);
        map.insert(sp);
        let mut replay = ReplayCache::new(64);
        let (client, hello) = DerivedClient::start(&cp, b"data").unwrap();

        // Flip a bit in the hello MAC region.
        let mut bad_hello = hello.clone();
        let mid = bad_hello.len() / 2;
        bad_hello[mid] ^= 0x80;
        assert!(derived_server_respond(&map, &mut replay, &bad_hello).is_err());

        let DerivedServerOutcome::Accepted(resp) =
            derived_server_respond(&map, &mut replay, &hello).unwrap()
        else {
            panic!("expected accept");
        };
        let mut bad_accept = resp.flight.clone();
        bad_accept[10] ^= 0x01;
        assert!(client.on_server_flight(&bad_accept).is_err());
    }

    #[test]
    fn path_secret_map_bounds_and_counts_evictions() {
        let (cp, _) = minted_pair();
        let mut map = PathSecretMap::new(2);
        for i in 0..4 {
            let mut ps = cp.clone();
            ps.peer = format!("host-{i}");
            ps.id[0] = i as u8;
            map.insert(ps);
        }
        assert_eq!(map.len(), 2);
        assert_eq!(map.evictions(), 2);
        assert!(map.get("host-0").is_none());
        assert!(map.get("host-3").is_some());
        // Re-inserting an existing peer replaces, not evicts.
        let mut ps = cp.clone();
        ps.peer = "host-3".to_string();
        ps.id[0] = 99;
        map.insert(ps);
        assert_eq!(map.len(), 2);
        assert_eq!(map.evictions(), 2);
        assert!(map
            .lookup_id(&{
                let mut id = cp.id;
                id[0] = 99;
                id
            })
            .is_some());
        // Removal drops both indices.
        assert!(map.remove("host-3").is_some());
        assert!(map.get("host-3").is_none());
        assert_eq!(map.len(), 1);
    }

    fn with_id(ps: &PathSecret, peer: &str, tag: u8) -> PathSecret {
        let mut ps = ps.clone();
        ps.peer = peer.to_string();
        ps.id[0] = tag;
        ps
    }

    #[test]
    fn anonymous_entries_are_found_by_id_and_evicted_oldest_first() {
        let (_, sp) = minted_pair();
        let mut map = PathSecretMap::new(3);
        for tag in 0..5 {
            map.insert(with_id(&sp, "", tag));
        }
        assert_eq!(map.len(), 3);
        assert_eq!(map.evictions(), 2);
        let id = |tag| with_id(&sp, "", tag).id;
        assert!(map.lookup_id(&id(0)).is_none());
        assert!(map.lookup_id(&id(1)).is_none());
        assert!((2..5).all(|t| map.lookup_id(&id(t)).is_some()));
        // No peer name is indexed for them, so name lookups find nothing.
        assert!(map.by_peer.is_empty());
        assert!(map.get("").is_none() && map.remove("").is_none());
        // A named entry joins the same oldest-first order.
        map.insert(with_id(&sp, "client-a", 9));
        assert_eq!(map.evictions(), 3);
        assert!(map.lookup_id(&id(2)).is_none());
        assert_eq!(map.get("client-a").map(|p| p.id), Some(id(9)));
    }

    #[test]
    fn named_peer_is_replaced_not_duplicated_and_remove_clears_both_indexes() {
        let (cp, _) = minted_pair();
        let mut map = PathSecretMap::new(8);
        map.insert(with_id(&cp, "server.dc.local", 1));
        map.insert(with_id(&cp, "server.dc.local", 2));
        assert_eq!(map.len(), 1);
        assert_eq!(map.order.len(), 1);
        assert_eq!(map.evictions(), 0);
        assert!(map.lookup_id(&with_id(&cp, "", 1).id).is_none());
        assert_eq!(
            map.get("server.dc.local").map(|p| p.id),
            Some(with_id(&cp, "", 2).id)
        );
        assert!(map.remove("server.dc.local").is_some());
        assert!(map.is_empty());
        assert!(map.by_peer.is_empty() && map.order.is_empty());
        assert!(map.lookup_id(&with_id(&cp, "", 2).id).is_none());
    }

    #[test]
    fn ratchet_walks_forward_deterministically() {
        let s0 = Secret::from_slice(&[0x42; HASH_LEN]).unwrap();
        let s1 = ratchet_secret(&s0);
        let s2 = ratchet_secret(&s1);
        assert_ne!(s0, s1);
        assert_ne!(s1, s2);
        assert_eq!(ratchet_secret(&s0), s1);
    }
}
