//! Remote block storage (NVMe-oF-like) over SMT with FIO-style random reads,
//! driven through the unified endpoint API with NIC crypto offload.
//!
//! Run with: `cargo run --example block_storage`

use smt::apps::blockstore::BlockRequest;
use smt::apps::{BlockStore, BlockStoreConfig, FioGenerator};
use smt::crypto::cert::CertificateAuthority;
use smt::crypto::handshake::{establish, ClientConfig, ServerConfig};
use smt::transport::{
    drive_pair, take_delivered, Endpoint, PairFabric, RpcWorkload, SecureEndpoint, StackKind,
    StackProfile,
};

fn main() {
    // Functional path: read blocks over a real SMT-hw endpoint pair.
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

    // Evaluation path: P50/P99 latency vs iodepth (the Fig. 9 model).
    println!("\niodepth  stack     p50(us)  p99(us)");
    for iodepth in [1usize, 4, 8] {
        for stack in [StackKind::KtlsSw, StackKind::SmtSw, StackKind::SmtHw] {
            let profile = StackProfile::new(stack);
            let costs = profile.rpc_costs(&RpcWorkload {
                request_bytes: 64,
                response_bytes: 4096 + 16,
                server_compute_ns: 2_500,
                server_fixed_latency_ns: 80_000,
            });
            let mut config = profile.pipeline_config(iodepth);
            config.client_app_threads = 1;
            config.server_app_threads = 1;
            let report = smt::sim::RpcPipelineSim::new(config, costs).run();
            println!(
                "{:7}  {:8}  {:7.1}  {:7.1}",
                iodepth,
                stack.label(),
                report.latency.p50_us,
                report.latency.p99_us
            );
        }
    }
}
