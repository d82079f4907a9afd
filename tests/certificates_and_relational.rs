//! Integration tests for certificates (serialization, tamper detection)
//! and the relational case studies (§7.1).

use leapfrog::{certificate, Certificate, Checker, EngineConfig, Outcome};
use leapfrog_logic::reach::reachable_pairs;
use leapfrog_suite::utility::{mpls, sloppy_strict};

fn mpls_certificate() -> (leapfrog_p4a::Automaton, Certificate) {
    let r = mpls::reference();
    let v = mpls::vectorized();
    let mut checker = Checker::new(
        &r,
        r.state_by_name("q1").unwrap(),
        &v,
        v.state_by_name("q3").unwrap(),
        EngineConfig::from_env().unwrap(),
    );
    match checker.run() {
        Outcome::Equivalent(cert) => (checker.sum_automaton().clone(), cert),
        other => panic!("expected equivalence: {other:?}"),
    }
}

#[test]
fn mpls_certificate_roundtrips_through_json() {
    let (aut, cert) = mpls_certificate();
    let json = cert.to_json();
    assert!(json.contains("\"relation\""));
    let back = Certificate::from_json(&json).expect("valid json");
    certificate::check(&aut, &back).expect("re-parsed certificate still checks");
}

#[test]
fn truncated_relation_is_rejected() {
    let (aut, mut cert) = mpls_certificate();
    // Dropping conjuncts must break closure or the init entailment.
    let n = cert.relation.len();
    cert.relation.truncate(n / 2);
    assert!(certificate::check(&aut, &cert).is_err());
}

#[test]
fn swapped_leaps_flag_is_rejected() {
    let (aut, mut cert) = mpls_certificate();
    // A with-leaps relation is generally not closed under bit-level WPs.
    cert.leaps = false;
    assert!(certificate::check(&aut, &cert).is_err());
}

#[test]
fn external_filtering_verifies_and_is_marked_nonstandard() {
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let mut checker = Checker::new(&sloppy, ql, &strict, qr, EngineConfig::from_env().unwrap());
    let reach = reachable_pairs(checker.sum_automaton(), &[checker.root()], true);
    let init = sloppy_strict::external_filter_init(checker.sum_info(), &reach);
    checker.replace_init(init);
    match checker.run() {
        Outcome::Equivalent(cert) => {
            assert!(!cert.standard_init);
            certificate::check(checker.sum_automaton(), &cert)
                .expect("pre-bisimulation certificate checks");
        }
        other => panic!("external filtering failed: {other:?}"),
    }
}

#[test]
fn store_correspondence_verifies() {
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let mut checker = Checker::new(&sloppy, ql, &strict, qr, EngineConfig::from_env().unwrap());
    let init = sloppy_strict::store_correspondence_init(checker.sum_info());
    checker.replace_init(init);
    assert!(checker.run().is_equivalent());
}

#[test]
fn plain_equivalence_of_sloppy_strict_fails() {
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();
    let mut checker = Checker::new(&sloppy, ql, &strict, qr, EngineConfig::from_env().unwrap());
    let outcome = checker.run();
    assert!(matches!(outcome, Outcome::NotEquivalent(_)));
    // The refutation must carry a confirmed, replayable witness packet.
    let w = leapfrog_suite::differential::confirm_refutation(&outcome)
        .expect("sloppy/strict witness must confirm");
    assert!(w.check());
}
