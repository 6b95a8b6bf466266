//! The profiler runtime's own contract. Its enabled flag and merged tree
//! are process-global, so this test lives alone in its own test binary:
//! in the library's unit-test binary, kernel tests running concurrently
//! would land their `kernel/*` scopes in the tree it inspects. (The
//! repo-level `tests/profiler.rs` suite exercises the executor
//! integration in its own process.)

use slsb_sim::prof::{enable, reset, take};
use slsb_sim::{ProfGuard, ProfileNode};

#[test]
fn guards_build_a_tree_and_disabled_guards_are_inert() {
    // Disabled: no state accumulates.
    enable(false);
    reset();
    {
        let _a = ProfGuard::enter("a");
        let _b = ProfGuard::enter("a/b");
    }
    assert!(take().is_empty());

    // Enabled: nesting shapes the tree, counts accumulate.
    enable(true);
    reset();
    for _ in 0..3 {
        let _a = ProfGuard::enter("a");
        {
            let _b = ProfGuard::enter("b");
        }
        {
            let _b = ProfGuard::enter("b");
        }
    }
    {
        let _r = ProfGuard::enter_root("root2");
    }
    enable(false);
    let roots = take();
    assert_eq!(roots.len(), 2, "{roots:?}");
    let a = roots.iter().find(|r| r.label == "a").expect("root a");
    assert_eq!(a.calls, 3);
    assert_eq!(a.children.len(), 1);
    assert_eq!(a.children[0].label, "b");
    assert_eq!(a.children[0].calls, 6);
    assert!(a.nanos >= a.children[0].nanos);
    assert!(roots.iter().any(|r| r.label == "root2"));

    // Shapes of identical work are equal even though times differ.
    enable(true);
    reset();
    let work = || {
        let _a = ProfGuard::enter("w");
        let _b = ProfGuard::enter("x");
    };
    work();
    let s1: Vec<ProfileNode> = take().iter().map(ProfileNode::shape).collect();
    work();
    let s2: Vec<ProfileNode> = take().iter().map(ProfileNode::shape).collect();
    enable(false);
    assert_eq!(s1, s2);

    // enter_root detaches from the active scope.
    enable(true);
    reset();
    {
        let _outer = ProfGuard::enter("outer");
        let _detached = ProfGuard::enter_root("detached");
    }
    enable(false);
    let roots = take();
    assert_eq!(roots.len(), 2, "{roots:?}");
    assert!(roots.iter().all(|r| r.children.is_empty()), "{roots:?}");

    // Worker threads flush on their own when the outermost scope
    // closes, so `take` on the main thread sees their work merged.
    enable(true);
    reset();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(|| {
                let _c = ProfGuard::enter_root("cell");
                let _k = ProfGuard::enter("kernel");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    enable(false);
    let roots = take();
    let cell = roots.iter().find(|r| r.label == "cell").expect("cell root");
    assert_eq!(cell.calls, 4);
    assert_eq!(cell.children[0].calls, 4);

    // Snapshots serialize and round-trip.
    let json = serde_json::to_string(&cell).unwrap();
    let back: ProfileNode = serde_json::from_str(&json).unwrap();
    assert_eq!(&back, cell);
}
