//! Property-based tests for requests and workload generation.

use mec_topology::Reliability;
use mec_workload::{
    DurationModel, Horizon, Request, RequestGenerator, RequestId, VnfCatalog, VnfTypeId,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #[test]
    fn request_window_always_inside_horizon(
        t in 1usize..200,
        arrival in 0usize..200,
        duration in 1usize..50,
        pay in 0.01f64..1e6,
    ) {
        let h = Horizon::new(t);
        let r = Request::new(
            RequestId(0),
            VnfTypeId(0),
            Reliability::new(0.9).unwrap(),
            arrival,
            duration,
            pay,
            h,
        );
        match r {
            Ok(req) => {
                prop_assert!(req.end_slot() < t);
                prop_assert_eq!(req.slots().count(), duration);
                // Activity vector has exactly `duration` ones.
                let ones = req.activity_vector(h).iter().filter(|&&b| b).count();
                prop_assert_eq!(ones, duration);
            }
            Err(_) => prop_assert!(arrival + duration > t || arrival >= t),
        }
    }

    #[test]
    fn generator_invariants(
        seed in 0u64..500,
        count in 1usize..300,
        horizon in 5usize..120,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cat = VnfCatalog::standard();
        let gen = RequestGenerator::new(Horizon::new(horizon));
        let reqs = gen.generate(count, &cat, &mut rng).unwrap();
        prop_assert_eq!(reqs.len(), count);
        for (i, r) in reqs.iter().enumerate() {
            prop_assert_eq!(r.id().index(), i);
            prop_assert!(r.end_slot() < horizon);
            prop_assert!(r.payment() > 0.0);
            prop_assert!(cat.get(r.vnf()).is_some());
            let rel = r.reliability_requirement().value();
            prop_assert!((0.9..=0.98).contains(&rel));
        }
        for w in reqs.windows(2) {
            prop_assert!(w[0].arrival() <= w[1].arrival());
        }
    }

    #[test]
    fn payment_rate_band_is_respected_for_all_models(
        seed in 0u64..200,
        lo in 0.5f64..4.0,
        spread in 0.0f64..10.0,
    ) {
        let hi = lo + spread;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cat = VnfCatalog::standard();
        let gen = RequestGenerator::new(Horizon::new(40))
            .payment_rate_band(lo, hi).unwrap()
            .durations(DurationModel::Uniform { lo: 1, hi: 6 }).unwrap();
        let reqs = gen.generate(50, &cat, &mut rng).unwrap();
        for r in &reqs {
            let vnf = cat.get(r.vnf()).unwrap();
            let rate = r.payment_rate(vnf);
            prop_assert!(rate >= lo - 1e-9 && rate <= hi + 1e-9);
        }
    }
}
