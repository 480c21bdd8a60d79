//! Seeded single-function edits, as an editor makes them.
//!
//! An edit rewrites the integer literal of one `return <int>;` statement.
//! Swapping one constant for another keeps every instruction and loop id
//! and every source line where it was, so the engine's per-function
//! digests change for exactly the edited function: a count-preserving,
//! single-function edit. Return values of the edited functions feed no
//! index or loop bound, so an edit never makes a model fault.

/// A `return <int>;` site: the function it is in and the literal's byte
/// range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Enclosing function.
    pub func: String,
    /// Byte range of the literal in the source.
    pub at: std::ops::Range<usize>,
}

/// Every editable site of `src`, in source order.
pub fn sites(src: &str) -> Vec<Site> {
    let mut out = Vec::new();
    let mut func = String::new();
    let mut pos = 0;
    for line in src.split_inclusive('\n') {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("fn ") {
            func = rest.split('(').next().unwrap_or_default().trim().to_owned();
        }
        let mut search = 0;
        while let Some(k) = line[search..].find("return ") {
            let start = search + k + "return ".len();
            let digits = line[start..].bytes().take_while(u8::is_ascii_digit).count();
            if digits > 0 && line[start + digits..].starts_with(';') {
                out.push(Site { func: func.clone(), at: pos + start..pos + start + digits });
            }
            search = start;
        }
        pos += line.len();
    }
    out
}

/// The current text of one model and the edits applied to it so far.
#[derive(Debug, Clone)]
pub struct Editable {
    /// Current source.
    pub source: String,
    sites: Vec<Site>,
    edits: u64,
}

impl Editable {
    /// Start from `source`; `None` when it has no editable site.
    pub fn new(source: &str) -> Option<Editable> {
        let sites = sites(source);
        (!sites.is_empty()).then(|| Editable { source: source.to_owned(), sites, edits: 0 })
    }

    /// Apply the next edit at the site chosen by `pick`; returns the
    /// edited function's name. Each edit writes a value no earlier edit of
    /// this model wrote, so every edited version is new to any cache.
    pub fn edit(&mut self, pick: u64) -> String {
        self.edits += 1;
        let idx = (pick % self.sites.len() as u64) as usize;
        let value = (1000 + self.edits).to_string();
        let site = self.sites[idx].clone();
        self.source.replace_range(site.at.clone(), &value);
        // Later sites shift by the literal's change in length.
        let delta = value.len() as isize - site.at.len() as isize;
        for s in &mut self.sites {
            if s.at.start > site.at.start {
                s.at = (s.at.start as isize + delta) as usize..(s.at.end as isize + delta) as usize;
            }
        }
        self.sites[idx].at = site.at.start..site.at.start + value.len();
        site.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_find_return_literals_per_function() {
        let src = "fn a() {\n    return 0;\n}\nfn b(x) {\n    if x < 2 { return 12; }\n    return x;\n}\n";
        let s = sites(src);
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].func.as_str(), &src[s[0].at.clone()]), ("a", "0"));
        assert_eq!((s[1].func.as_str(), &src[s[1].at.clone()]), ("b", "12"));
    }

    #[test]
    fn edits_are_count_preserving_and_touch_exactly_one_function() {
        let mut editable_models = 0;
        for app in parpat_suite::all_apps() {
            let Some(mut m) = Editable::new(app.model) else { continue };
            editable_models += 1;
            let mut prev = parpat_ir::compile(&m.source).unwrap();
            for pick in 0..6u64 {
                let func = m.edit(pick * 7919);
                let next = parpat_ir::compile(&m.source)
                    .unwrap_or_else(|e| panic!("{}: edit broke the model: {e}", app.name));
                assert_eq!(next.inst_count(), prev.inst_count(), "{}", app.name);
                assert_eq!(next.loop_count(), prev.loop_count(), "{}", app.name);
                assert_eq!(m.source.lines().count(), app.model.lines().count(), "{}", app.name);
                let before = parpat_engine::function_digests(&prev);
                let after = parpat_engine::function_digests(&next);
                let changed: Vec<&str> = before
                    .iter()
                    .zip(&after)
                    .zip(&next.functions)
                    .filter(|((b, a), _)| b != a)
                    .map(|(_, f)| f.name.as_str())
                    .collect();
                assert_eq!(changed, vec![func.as_str()], "{}: edit {pick}", app.name);
                // The edited model still runs to completion.
                parpat_core::analyze(next.clone(), &Default::default())
                    .unwrap_or_else(|e| panic!("{}: edited model faults: {e}", app.name));
                prev = next;
            }
        }
        assert!(editable_models >= 12, "only {editable_models} editable models");
    }
}
