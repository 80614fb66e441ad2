//! Figure 1: vendor-specific IP aggregation behaviour causes severe
//! traffic imbalance — and only a bug-compatible emulation can see it.
//!
//! R1 (AS 1) owns P1 and P2. R6 ("Vendor-A") and R7 ("Vendor-C") both
//! aggregate them into P3, but Vendor-A selects a contributing path and
//! prepends itself while Vendor-C announces the aggregate with only its
//! own AS — so R8 always prefers R7, and every P3-bound packet squeezes
//! through one router.
//!
//! ```sh
//! cargo run --release --example vendor_aggregation_bug
//! ```

use crystalnet::prelude::*;
use crystalnet::scenarios::{fig1_emulation, fig1_split};
use crystalnet_net::fixtures::fig1;

fn main() {
    let f = fig1();
    // Operators configure `aggregate-address P3 summary-only` on both
    // aggregation routers — identical configuration, divergent firmware.
    let mut emu = fig1_emulation(&f, MockupOptions::builder().build());

    // R8's view of P3, as an operator would pull it.
    if let Ok(MgmtResponse::Routes(rows)) = emu.login_and_run("r8", MgmtCommand::ShowRoutes) {
        for (prefix, path_len, ecmp) in rows {
            if prefix == f.p3 {
                println!("R8: {prefix} AS-path length {path_len}, ECMP width {ecmp}");
            }
        }
    }

    // Telemetry: 200 flows from R8 into P3.
    let flows = (0..200u32).map(|flow| {
        let src = crystalnet_net::Ipv4Addr::new(203, 0, (flow >> 8) as u8, flow as u8);
        (src, f.p3.nth(flow * 7 + 1))
    });
    let (via_r6, via_r7) = fig1_split(&mut emu, &f, flows);
    println!("traffic split for P3: R6 carried {via_r6}, R7 carried {via_r7}");
    println!(
        "imbalance {}: Vendor-C's empty-path aggregate wins every tie",
        if via_r6 == 0 {
            "confirmed"
        } else {
            "NOT reproduced"
        }
    );
}
