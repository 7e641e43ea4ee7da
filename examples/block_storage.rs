//! Remote block storage (NVMe-oF-like) over SMT with FIO-style random reads,
//! driven through the unified endpoint API with NIC crypto offload.
//!
//! Run with: `cargo run --example block_storage`

use smt::apps::blockstore::BlockRequest;
use smt::apps::{BlockStore, BlockStoreConfig, FioGenerator};
use smt::crypto::cert::CertificateAuthority;
use smt::crypto::handshake::{establish, ClientConfig, ServerConfig};
use smt::transport::{drive_pair, take_delivered, Endpoint, PairFabric, SecureEndpoint, StackKind};

fn main() {
    // Read blocks over a real SMT-hw endpoint pair.  Fig. 9's latency sweep
    // over iodepth is the `figures` binary's fig9 rows.
    let ca = CertificateAuthority::new("dc-internal-ca");
    let id = ca.issue_identity("nvme.dc.local");
    let (ck, sk) = establish(
        ClientConfig::new(ca.verifying_key(), "nvme.dc.local"),
        ServerConfig::new(id, ca.verifying_key()),
    )
    .expect("handshake");
    let (mut client, mut server) = Endpoint::builder()
        .stack(StackKind::SmtHw)
        .pair(&ck, &sk, 9000, 4420)
        .expect("endpoints");
    let mut link = PairFabric::reliable();

    let mut store = BlockStore::new(BlockStoreConfig::default());
    let mut fio = FioGenerator::new(1 << 20, 4, 7);
    for _ in 0..32 {
        let req = fio.next_read();
        let encoded = match req {
            BlockRequest::Read { lba } => lba.to_be_bytes().to_vec(),
            BlockRequest::Write { lba } => lba.to_be_bytes().to_vec(),
        };
        client.send(&encoded, link.now()).expect("send");
        drive_pair(&mut client, &mut server, &mut link, 1_000_000);
        let (_, request) = take_delivered(&mut server).pop().expect("request");
        let lba = u64::from_be_bytes(request[..8].try_into().unwrap());
        let (block, _lat) = store.execute(&BlockRequest::Read { lba }, None);
        server.send(&block, link.now()).expect("respond");
        drive_pair(&mut client, &mut server, &mut link, 1_000_000);
        take_delivered(&mut client).pop().expect("block");
    }
    let offload = server.nic_stats().offload_records;
    println!(
        "served {} block reads over SMT-hw ({offload} records NIC-encrypted on the response path)",
        store.reads,
    );
}
