//! How much of each figure the loop skip leaves to ticking. Every point
//! of Figures 4a–6b runs over one shared course, as the sweep runs it;
//! the cycles not applied by the skip (`cycles − RepeatCounts::cycles`)
//! are what a figure costs, so a change that stops the skip catching a
//! loop shows up here as a bound exceeded. Figure 6a re-plots 5b's
//! points.

use std::sync::Arc;

use pipe_core::{Course, Processor};
use pipe_experiments::runner::point_config;
use pipe_experiments::SweepSpec;
use pipe_isa::DecodedProgram;

/// Ticked cycles per figure, at most, with loops whose timing state
/// repeats every second iteration applied in pairs (134,698, 117,730,
/// 601,735, 608,398 and 302,931 when only states that repeat every
/// iteration were applied).
const MOST_TICKED: [(&str, u64); 5] = [
    ("4a", 124_738),
    ("4b", 107_770),
    ("5a", 472_587),
    ("5b", 449_446),
    ("6b", 207_238),
];

#[test]
fn each_figure_ticks_at_most_its_bound() {
    let program = SweepSpec::figure("4a").workload.build();
    let course = Arc::new(Course::record(&Arc::new(DecodedProgram::new(program))));
    for (id, most) in MOST_TICKED {
        let spec = SweepSpec::figure(id);
        let mut ticked = 0;
        for job in spec.expand() {
            let config = point_config(job.fetch, &spec.mem);
            let mut proc = Processor::from_course(&course, &config).unwrap();
            let counts = proc.run_counting_repeats().unwrap();
            ticked += proc.stats().cycles - counts.cycles;
        }
        println!("fig{id}: {ticked} cycles ticked");
        assert!(ticked <= most, "fig{id}: {ticked} cycles ticked");
    }
}
