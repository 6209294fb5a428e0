//! Inputs of the three daemon workloads: the requests set-up sends, the
//! request of every timed operation, the reference output each response
//! must equal, and the client-side checks on input shape.

use crate::daemon::Reply;
use jepo_analyzer::gen::{self, GenConfig};
use jepo_core::{corpus, JepoProfiler, ProfileReport};
use jepo_jlang::JavaProject;
use jepo_serve::codec::Request;
use jepo_serve::ops;
use std::collections::HashSet;
use std::sync::Mutex;

/// Files in the `edit-analyze` corpus (about 206 KB of source).
pub const EDIT_FILES: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WarmRead,
    EditAnalyze,
    ProfileEdit,
}

pub type Files = Vec<(String, String)>;

pub struct Traffic {
    pub kind: Kind,
    seed: u64,
    /// Requests each set-up sends, cold, before the timed phase.
    pub prime: Vec<Request>,
    /// Reference body of each primed request, computed in this process
    /// without any of the daemon's caches.
    pub reference: Vec<String>,
    /// The unedited corpus the edit workloads change one file of.
    base: Files,
    gen: GenConfig,
}

/// Edits one daemon has been sent: `(file index, content hash)`.
pub type Sent = Mutex<HashSet<(usize, u64)>>;

impl Traffic {
    pub fn new(kind: Kind, seed: u64) -> Result<Traffic, String> {
        let gen = GenConfig {
            files: EDIT_FILES,
            seed,
            ..GenConfig::default()
        };
        let (base, verbs): (Files, &[&str]) = match kind {
            Kind::WarmRead => (weka_files(), &["analyze", "energy", "profile"]),
            Kind::EditAnalyze => (
                (0..EDIT_FILES)
                    .map(|i| (gen::file_name(i), gen::generate_source(&gen, i, 0)))
                    .collect(),
                &["analyze"],
            ),
            Kind::ProfileEdit => (weka_files(), &["profile"]),
        };
        let prime: Vec<Request> = verbs.iter().map(|v| request(v, base.clone())).collect();
        let reference = prime
            .iter()
            .map(|r| reference_body(&r.verb, &r.files))
            .collect::<Result<_, _>>()?;
        Ok(Traffic {
            kind,
            seed,
            prime,
            reference,
            base,
            gen,
        })
    }

    /// The request of timed operation `k`. Pure: the replay rebuilds it.
    pub fn request(&self, k: usize) -> Request {
        match self.kind {
            Kind::WarmRead => self.prime[self.warm_index(k)].clone(),
            Kind::EditAnalyze => {
                let i = self.edit_target(k);
                let mut files = self.base.clone();
                files[i].1 = gen::generate_source(&self.gen, i, k as u64 + 1);
                request("analyze", files)
            }
            Kind::ProfileEdit => {
                let i = self.edit_target(k);
                let mut files = self.base.clone();
                // A trailing comment: the program and its output stay the same.
                files[i]
                    .1
                    .push_str(&format!("\n// edit {} of run {}\n", k, self.seed));
                request("profile", files)
            }
        }
    }

    /// The payload of operation `k`, after the input-shape checks: a
    /// `warm-read` request is a primed one, byte for byte; an edit differs
    /// from the base in exactly one file and from every request in `sent`.
    pub fn payload(&self, k: usize, sent: &Sent) -> Result<Vec<u8>, String> {
        if self.kind == Kind::WarmRead {
            return Ok(self.prime[self.warm_index(k)].encode());
        }
        let req = self.request(k);
        let changed: Vec<usize> = (0..self.base.len())
            .filter(|&i| req.files.get(i) != Some(&self.base[i]))
            .collect();
        if req.files.len() != self.base.len() || changed.len() != 1 {
            return Err(format!(
                "op {k}: request differs from the base in {} files, not 1",
                changed.len()
            ));
        }
        let i = changed[0];
        let key = (i, jepo_analyzer::fnv1a64(req.files[i].1.as_bytes()));
        if !sent.lock().expect("sent set").insert(key) {
            return Err(format!(
                "op {k}: repeats an earlier request's edit of file {i}"
            ));
        }
        Ok(req.encode())
    }

    /// Check the response of operation `k` against its reference.
    pub fn check(&self, k: usize, reply: &Reply) -> Result<(), String> {
        let want = &self.reference[self.reference_index(k)];
        if reply.body != *want {
            return Err(format!(
                "op {k}: response differs from the reference ({} vs {} bytes)",
                reply.body.len(),
                want.len()
            ));
        }
        if self.kind == Kind::WarmRead && reply.cache != "warm" {
            return Err(format!(
                "op {k}: served {}, not from the response memo",
                reply.cache
            ));
        }
        Ok(())
    }

    pub fn reference_index(&self, k: usize) -> usize {
        match self.kind {
            Kind::WarmRead => self.warm_index(k),
            _ => 0,
        }
    }

    pub fn base(&self) -> &Files {
        &self.base
    }

    fn warm_index(&self, k: usize) -> usize {
        let n = self.prime.len();
        (k % n + (self.seed % n as u64) as usize) % n
    }

    /// Which file operation `k` edits, drawn from the seed.
    fn edit_target(&self, k: usize) -> usize {
        match self.kind {
            Kind::EditAnalyze => {
                let mut key = self.seed.to_le_bytes().to_vec();
                key.extend_from_slice(&(k as u64).to_le_bytes());
                jepo_analyzer::fnv1a64(&key) as usize % self.base.len()
            }
            _ => self
                .base
                .iter()
                .position(|(name, _)| name == "Main.java")
                .expect("the WEKA corpus has Main.java"),
        }
    }
}

fn request(verb: &str, files: Files) -> Request {
    let mut r = Request::new(verb);
    r.files = files;
    r
}

/// The runnable 5-file WEKA corpus as `(name, body)` pairs.
fn weka_files() -> Files {
    corpus::runnable_project()
        .files()
        .iter()
        .map(|f| (f.name.clone(), f.text.clone()))
        .collect()
}

pub fn project_of(files: &[(String, String)]) -> Result<JavaProject, String> {
    let mut p = JavaProject::new();
    for (name, body) in files {
        p.add_file(name, body).map_err(|e| e.to_string())?;
    }
    Ok(p)
}

/// What the CLI computes for `verb` on `files`, with no cache: the body a
/// daemon response must equal.
fn reference_body(verb: &str, files: &[(String, String)]) -> Result<String, String> {
    let project = project_of(files)?;
    Ok(match verb {
        "analyze" => {
            let analyzer = jepo_analyzer::Analyzer::interprocedural();
            let mut cache = analyzer.new_cache();
            let mut found = analyzer.analyze_project_incremental(&project, &mut cache);
            jepo_analyzer::impact::rank(&mut found);
            ops::analyze_render(&found, project.len())
        }
        // The daemon's default `top`.
        "energy" => ops::energy_render(&project, 20),
        "profile" => {
            let report = JepoProfiler::new()
                .profile(&project)
                .map_err(|e| e.to_string())?;
            profile_body(&report)
        }
        other => return Err(format!("no reference for verb {other}")),
    })
}

/// The daemon's `profile` body: the CLI's profile render followed by the
/// program's own output.
pub fn profile_body(report: &ProfileReport) -> String {
    let mut out = ops::profile_render(report);
    if !report.stdout.is_empty() {
        out.push_str(&format!(
            "\nprogram output:\n{}\n",
            report.stdout.trim_end()
        ));
    }
    out
}
