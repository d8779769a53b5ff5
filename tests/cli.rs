//! Integration tests for the `hyperline` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hyperline"))
}

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hyperline-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Writes the paper's example hypergraph to `<name>.hgr`. Tests run in
/// parallel, so each passes its own name: a shared file could be
/// truncated by one test while another's CLI process reads it.
fn write_paper_example(name: &str) -> PathBuf {
    let path = temp_file(&format!("{name}.hgr"));
    std::fs::write(&path, "0 1 2\n1 2 3\n0 1 2 3 4\n4 5\n").unwrap();
    path
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = cli().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn stats_reports_shape() {
    let path = write_paper_example("stats_reports_shape");
    let out = cli().arg("stats").arg(&path).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("vertices:            6"));
    assert!(stdout.contains("hyperedges:          4"));
    assert!(stdout.contains("incidences:          13"));
    assert!(stdout.contains("not simple"));
}

#[test]
fn slg_emits_edge_list() {
    let path = write_paper_example("slg_emits_edge_list");
    let out = cli().arg("slg").arg(&path).arg("--s=2").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines, vec!["0 1", "0 2", "1 2"]);
}

#[test]
fn slg_writes_output_file() {
    let path = write_paper_example("slg_writes_output_file");
    let out_path = temp_file("s3.edges");
    let out = cli()
        .arg("slg")
        .arg(&path)
        .arg("--s=3")
        .arg(format!("--out={}", out_path.display()))
        .output()
        .unwrap();
    assert!(out.status.success());
    let content = std::fs::read_to_string(&out_path).unwrap();
    assert_eq!(content, "0 2\n1 2\n");
}

#[test]
fn components_lists_sets() {
    let path = write_paper_example("components_lists_sets");
    let out = cli()
        .arg("components")
        .arg(&path)
        .arg("--s=2")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 2-connected component(s):"));
    assert!(stdout.contains("[0, 1, 2]"));
}

#[test]
fn sweep_counts_match_figure2() {
    let path = write_paper_example("sweep_counts_match_figure2");
    let out = cli()
        .arg("sweep")
        .arg(&path)
        .arg("--max-s=4")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout.lines().collect();
    assert_eq!(rows, vec!["1\t4", "2\t3", "3\t2", "4\t0"]);
}

#[test]
fn sclique_flag_analyzes_dual() {
    let path = write_paper_example("sclique_flag_analyzes_dual");
    let out = cli()
        .arg("sweep")
        .arg(&path)
        .arg("--max-s=3")
        .arg("--sclique")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // s-clique counts of the paper example: 11, 5, 1.
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        vec!["1\t11", "2\t5", "3\t1"]
    );
}

#[test]
fn gen_roundtrips_through_stats() {
    let out_path = temp_file("lesmis.hgr");
    let out = cli()
        .arg("gen")
        .arg("lesMis")
        .arg(format!("--out={}", out_path.display()))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = cli().arg("stats").arg(&out_path).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("hyperedges:          400"));
}

#[test]
fn unknown_command_and_missing_file_fail() {
    let out = cli().arg("frobnicate").arg("x").output().unwrap();
    assert!(!out.status.success());
    let out = cli()
        .arg("stats")
        .arg("/nonexistent/file.hgr")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn draw_emits_dot() {
    let path = write_paper_example("draw_emits_dot");
    let out = cli().arg("draw").arg(&path).arg("--s=2").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("graph {"));
    // s = 2 line graph is the triangle on hyperedges 0,1,2 with weights 2,3,3.
    assert!(stdout.contains("n0 -- n1"));
    assert!(stdout.contains("label=\"3\""));
}

#[test]
fn pairs_format_accepted() {
    let path = temp_file("pairs.txt");
    std::fs::write(&path, "0 0\n0 1\n1 1\n1 2\n").unwrap();
    let out = cli()
        .arg("stats")
        .arg(&path)
        .arg("--pairs")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hyperedges:          2"));
    assert!(stdout.contains("vertices:            3"));
}
