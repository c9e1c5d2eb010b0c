//! Seeded inputs: documents, the ad-hoc query pool, and the edit stream.
//!
//! Everything here is a pure function of its seed, so a run can be
//! replayed exactly. The document is also kept as a [`Mirror`]: a
//! preorder list of (label, depth) that the benchmark edits itself,
//! without the storage layer's update code, so the checks have an
//! independent copy of what the database should hold.

use arb_datagen::queries::{RandomPathQuery, RegexShape, R_TOP_DOWN};
use arb_datagen::treebank::{treebank_tree, TreebankConfig};
use arb_tree::{BinaryTree, LabelId, LabelTable, NodeId, TreeBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The tags the paper's Treebank queries range over.
pub const CORE_TAGS: [&str; 4] = ["S", "NP", "VP", "PP"];

/// Filler tags beyond the core set, as in the paper's 251-tag corpus.
const FILLER_TAGS: usize = 246;

/// A synthetic treebank of about `elems` element nodes (about 4.2 nodes
/// per element once the words' character nodes are counted).
pub fn treebank(elems: usize, seed: u64) -> (BinaryTree, LabelTable) {
    let mut labels = LabelTable::new();
    let tree = treebank_tree(
        &TreebankConfig {
            target_elems: elems,
            seed,
            filler_tags: FILLER_TAGS,
        },
        &mut labels,
    );
    (tree, labels)
}

/// The document as the benchmark's own preorder list of nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mirror {
    /// Label of each node, in document order.
    pub label: Vec<LabelId>,
    /// Unranked depth of each node (the root has depth 0).
    pub depth: Vec<u32>,
}

impl Mirror {
    /// Reads a tree's nodes in preorder (which is document order in the
    /// first-child/next-sibling encoding).
    pub fn from_tree(tree: &BinaryTree) -> Self {
        let n = tree.len();
        let mut depth = vec![0u32; n];
        for v in tree.nodes() {
            let d = depth[v.ix()];
            if let Some(c) = tree.first_child(v) {
                depth[c.ix()] = d + 1;
            }
            if let Some(s) = tree.second_child(v) {
                depth[s.ix()] = d;
            }
        }
        let label = tree.nodes().map(|v| tree.label(v)).collect();
        Mirror { label, depth }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.label.len()
    }

    /// One past the last node of the subtree rooted at `v`.
    pub fn end(&self, v: usize) -> usize {
        let d = self.depth[v];
        let mut e = v + 1;
        while e < self.len() && self.depth[e] > d {
            e += 1;
        }
        e
    }

    /// Replaces the nodes `[at, end)` by `frag`, whose depths are relative
    /// to its root and are shifted to `base`.
    fn replace(&mut self, at: usize, end: usize, frag: &Mirror, base: u32) {
        self.label.splice(at..end, frag.label.iter().copied());
        self.depth
            .splice(at..end, frag.depth.iter().map(|&d| d + base));
    }

    /// Applies one edit the way the document model defines it and returns
    /// the edit window `(pos, removed, inserted)`.
    pub fn apply(&mut self, edit: &Edit, labels: &LabelTable) -> (usize, usize, usize) {
        match edit {
            Edit::Append { under, xml } => {
                let frag = Mirror::parse_fragment(xml, labels);
                let pos = self.end(*under);
                let base = self.depth[*under] + 1;
                self.replace(pos, pos, &frag, base);
                (pos, 0, frag.len())
            }
            Edit::Splice { at, xml } => {
                let frag = Mirror::parse_fragment(xml, labels);
                let end = self.end(*at);
                let base = self.depth[*at];
                self.replace(*at, end, &frag, base);
                (*at, end - at, frag.len())
            }
            Edit::Delete { at } => {
                let end = self.end(*at);
                self.replace(*at, end, &Mirror::empty(), 0);
                (*at, end - at, 0)
            }
        }
    }

    fn empty() -> Self {
        Mirror {
            label: Vec::new(),
            depth: Vec::new(),
        }
    }

    /// Reads a fragment written by [`fragment`]: elements without
    /// attributes and lowercase text, nothing else.
    fn parse_fragment(xml: &str, labels: &LabelTable) -> Mirror {
        let mut m = Mirror::empty();
        let b = xml.as_bytes();
        let mut depth = 0u32;
        let mut i = 0;
        while i < b.len() {
            if b[i] == b'<' {
                let close = b[i + 1] == b'/';
                let end = i + xml[i..].find('>').expect("fragment tag ends");
                let self_closing = b[end - 1] == b'/';
                if close {
                    depth -= 1;
                } else {
                    let name_end = if self_closing { end - 1 } else { end };
                    let name = &xml[i + 1..name_end];
                    m.label.push(labels.get(name).expect("fragment tag exists"));
                    m.depth.push(depth);
                    if !self_closing {
                        depth += 1;
                    }
                }
                i = end + 1;
            } else {
                m.label.push(LabelId::from_char_byte(b[i]));
                m.depth.push(depth);
                i += 1;
            }
        }
        m
    }

    /// Builds the binary tree the direct evaluator runs on.
    pub fn to_tree(&self) -> BinaryTree {
        let mut b = TreeBuilder::with_capacity(self.len());
        for (&label, &d) in self.label.iter().zip(&self.depth) {
            while b.depth() > d as usize {
                b.close();
            }
            if label.is_text() {
                b.leaf(label);
            } else {
                b.open(label);
            }
        }
        while b.depth() > 0 {
            b.close();
        }
        b.finish().expect("mirror holds one rooted document")
    }
}

/// One document edit, with positions as preorder indexes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Append `xml` as the last child of element `under`.
    Append { under: usize, xml: String },
    /// Replace the subtree at `at` by `xml`.
    Splice { at: usize, xml: String },
    /// Delete the subtree at `at`.
    Delete { at: usize },
}

/// The largest subtree an edit removes.
const MAX_EDIT_NODES: usize = 40;

fn tag_name(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.8) {
        CORE_TAGS[rng.gen_range(0..CORE_TAGS.len())].to_string()
    } else {
        format!("T{}", rng.gen_range(0..FILLER_TAGS))
    }
}

/// A random fragment of exactly `size` nodes (one root element, nested
/// elements and lowercase text), using only tags the document has.
pub fn fragment(rng: &mut StdRng, size: usize) -> String {
    fn build(rng: &mut StdRng, size: usize, depth: usize, out: &mut String) {
        let tag = tag_name(rng);
        if size == 1 {
            out.push_str(&format!("<{tag}/>"));
            return;
        }
        out.push_str(&format!("<{tag}>"));
        let mut left = size - 1;
        while left > 0 {
            if depth >= 3 || rng.gen_bool(0.4) {
                let run = rng.gen_range(1..=left.min(6));
                for _ in 0..run {
                    out.push(rng.gen_range(b'a'..=b'z') as char);
                }
                left -= run;
            } else {
                let child = rng.gen_range(1..=left);
                build(rng, child, depth + 1, out);
                left -= child;
            }
        }
        out.push_str(&format!("</{tag}>"));
    }
    let mut out = String::new();
    build(rng, size, 0, &mut out);
    out
}

/// Edit sites visit the document's tenths in this order, so every run's
/// edits cover the document evenly: the cost of an edit depends on where
/// it lands.
const TENTHS: [usize; 10] = [0, 5, 2, 7, 4, 9, 1, 6, 3, 8];

/// Picks a non-root element whose subtree has at most `max` nodes, at or
/// after a random position in the given tenth of the document.
fn pick_element(doc: &Mirror, rng: &mut StdRng, tenth: usize, max: usize) -> (usize, usize) {
    let n = doc.len();
    let lo = 1 + tenth * (n - 1) / 10;
    let hi = 1 + (tenth + 1) * (n - 1) / 10;
    let start = rng.gen_range(lo..hi);
    for k in 0..n - 1 {
        let v = 1 + (start - 1 + k) % (n - 1);
        if !doc.label[v].is_text() {
            let size = doc.end(v) - v;
            if size <= max {
                return (v, size);
            }
        }
    }
    panic!("document has no editable element");
}

/// The seeded edit stream. Edits come in pairs that leave the node count
/// where it was, alternating between two kinds: delete a subtree then
/// append a fragment of the same size elsewhere, and splice a fragment of
/// a new size then splice a second one that makes up the difference.
pub struct EditStream {
    rng: StdRng,
    doc: Mirror,
    labels: LabelTable,
    /// Edits handed out so far.
    edits: usize,
}

impl EditStream {
    /// A stream over `doc`, whose tag names resolve through `labels`.
    pub fn new(doc: Mirror, labels: LabelTable, seed: u64) -> Self {
        EditStream {
            rng: StdRng::seed_from_u64(seed ^ 0xED17),
            doc,
            labels,
            edits: 0,
        }
    }

    /// A site for the next edit, in the next tenth of the document.
    fn site(&mut self, max: usize) -> (usize, usize) {
        let tenth = TENTHS[self.edits % TENTHS.len()];
        self.edits += 1;
        pick_element(&self.doc, &mut self.rng, tenth, max)
    }

    fn apply(&mut self, edit: Edit) -> Edit {
        self.doc.apply(&edit, &self.labels);
        edit
    }

    /// The next size-preserving pair of edits.
    pub fn next_pair(&mut self) -> [Edit; 2] {
        if self.edits.is_multiple_of(4) {
            let (at, size) = self.site(MAX_EDIT_NODES);
            let e1 = self.apply(Edit::Delete { at });
            let (under, _) = self.site(usize::MAX);
            let xml = fragment(&mut self.rng, size);
            let e2 = self.apply(Edit::Append { under, xml });
            return [e1, e2];
        }
        let (at, old_size) = self.site(MAX_EDIT_NODES);
        let new_size = self.rng.gen_range(1..=MAX_EDIT_NODES);
        let xml = fragment(&mut self.rng, new_size);
        let e1 = self.apply(Edit::Splice { at, xml });
        // The second splice must replace a subtree of `s` nodes by one of
        // `s + old_size - new_size` nodes, which has to be at least one.
        let tenth = TENTHS[self.edits % TENTHS.len()];
        self.edits += 1;
        loop {
            let (at, size) = pick_element(&self.doc, &mut self.rng, tenth, MAX_EDIT_NODES);
            if size + old_size > new_size {
                let xml = fragment(&mut self.rng, size + old_size - new_size);
                let e2 = self.apply(Edit::Splice { at, xml });
                return [e1, e2];
            }
        }
    }

    /// The document after every edit handed out so far.
    #[cfg(test)]
    pub fn doc(&self) -> &Mirror {
        &self.doc
    }
}

/// One query of the ad-hoc pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolQuery {
    /// A Figure 6 random regular path query, as a TMNF program.
    Path { display: String, program: String },
    /// A Core XPath location path.
    XPath(String),
}

impl PoolQuery {
    /// The text shown in listings.
    pub fn text(&self) -> &str {
        match self {
            PoolQuery::Path { display, .. } => display,
            PoolQuery::XPath(src) => src,
        }
    }
}

fn xpath_atom(rng: &mut StdRng, deep: bool) -> String {
    let t = CORE_TAGS[rng.gen_range(0..CORE_TAGS.len())];
    match rng.gen_range(0..5) {
        0 | 1 => t.to_string(),
        2 if deep => format!(".//{t}"),
        2 => t.to_string(),
        3 => format!("following-sibling::{t}"),
        _ => format!("../{t}"),
    }
}

/// Predicate kinds: an atom, its negation, a conjunction, and a negated
/// conjunct.
const PREDICATE_KINDS: usize = 4;
/// Path shapes: `//a[p]`, and `//a[p] X b` or `//a X b[p]` for each of
/// three axes `X`.
const XPATH_SHAPES: usize = 7;

fn xpath_predicate(rng: &mut StdRng, kind: usize) -> String {
    let a = xpath_atom(rng, true);
    match kind {
        0 => a,
        1 => format!("not({a})"),
        2 => format!("{a} and {}", xpath_atom(rng, false)),
        _ => format!("not({a}) and {}", xpath_atom(rng, false)),
    }
}

/// A random Core XPath location path over the core tags in the style of
/// the server mix (`//S[NP and VP]`, `//NP[not(PP)]/VP`), of the given
/// shape (below [`XPATH_SHAPES`]) and predicate kind (below
/// [`PREDICATE_KINDS`]): one or two steps (child, descendant or
/// following-sibling) and one predicate with a conjunction or a negation.
pub fn random_xpath(rng: &mut StdRng, shape: usize, kind: usize) -> String {
    let tag = |rng: &mut StdRng| CORE_TAGS[rng.gen_range(0..CORE_TAGS.len())];
    let first = tag(rng);
    if shape == 0 {
        return format!("//{first}[{}]", xpath_predicate(rng, kind));
    }
    let axis = ["/", "//", "/following-sibling::"][(shape - 1) / 2];
    let second = tag(rng);
    if shape % 2 == 1 {
        format!("//{first}[{}]{axis}{second}", xpath_predicate(rng, kind))
    } else {
        format!("//{first}{axis}{second}[{}]", xpath_predicate(rng, kind))
    }
}

/// The ad-hoc pool: `paths` Figure 6 path queries of sizes 5 to 15 and
/// `xpaths` XPath location paths, all distinct, in a seeded order.
///
/// The pool is stratified so that its make-up, and with it the cost of a
/// round, varies little from seed to seed: path query `i` has size
/// `5 + i % 11`, and XPath `j` has shape `j % 7` and predicate kind
/// `j % 4`, so 28 XPaths hold every shape with every kind once. The seed
/// picks the tags, the steps' regular expressions and the order.
pub fn query_pool(seed: u64, paths: usize, xpaths: usize) -> Vec<PoolQuery> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9001);
    let mut pool: Vec<PoolQuery> = Vec::with_capacity(paths + xpaths);
    while pool.len() < paths {
        let size = 5 + pool.len() % 11;
        let q = RandomPathQuery::random(size, &CORE_TAGS, RegexShape::Tags, &mut rng);
        let p = PoolQuery::Path {
            display: q.display(),
            program: q.to_program(R_TOP_DOWN),
        };
        if !pool.contains(&p) {
            pool.push(p);
        }
    }
    while pool.len() < paths + xpaths {
        let j = pool.len() - paths;
        let p = PoolQuery::XPath(random_xpath(
            &mut rng,
            j % XPATH_SHAPES,
            j % PREDICATE_KINDS,
        ));
        if !pool.contains(&p) {
            pool.push(p);
        }
    }
    // Fisher-Yates, so the classes interleave.
    for i in (1..pool.len()).rev() {
        let j = rng.gen_range(0..=i);
        pool.swap(i, j);
    }
    pool
}

/// A node set as ascending preorder indexes, the form results are compared in.
pub fn node_ids(set: &arb_tree::NodeSet) -> Vec<u32> {
    set.iter().map(|v: NodeId| v.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let (a, la) = treebank(2_000, 5);
        let (b, lb) = treebank(2_000, 5);
        assert_eq!(Mirror::from_tree(&a), Mirror::from_tree(&b));
        assert_eq!(la.tag_count(), lb.tag_count());
        let (c, _) = treebank(2_000, 6);
        assert_ne!(Mirror::from_tree(&a), Mirror::from_tree(&c));

        assert_eq!(query_pool(3, 20, 20), query_pool(3, 20, 20));
        assert_ne!(query_pool(3, 20, 20), query_pool(4, 20, 20));

        let mut s1 = EditStream::new(Mirror::from_tree(&a), la.clone(), 9);
        let mut s2 = EditStream::new(Mirror::from_tree(&a), la, 9);
        for _ in 0..20 {
            assert_eq!(s1.next_pair(), s2.next_pair());
        }
    }

    #[test]
    fn pool_queries_are_distinct() {
        let pool = query_pool(1, 66, 28);
        assert_eq!(pool.len(), 94);
        for (i, q) in pool.iter().enumerate() {
            assert!(!pool[..i].contains(q), "{} repeats", q.text());
        }
    }

    #[test]
    fn fragments_have_the_asked_size() {
        let (_, labels) = treebank(100, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for size in 1..60 {
            let xml = fragment(&mut rng, size);
            assert_eq!(Mirror::parse_fragment(&xml, &labels).len(), size, "{xml}");
            // The program's own parser reads the same number of nodes.
            let mut lt = labels.clone();
            assert_eq!(arb_xml::str_to_tree(&xml, &mut lt).unwrap().len(), size);
            assert_eq!(lt.tag_count(), labels.tag_count(), "no new tag names");
        }
    }

    #[test]
    fn edit_stream_keeps_the_node_count_level() {
        let (tree, labels) = treebank(3_000, 2);
        let start = Mirror::from_tree(&tree);
        let n = start.len();
        let mut stream = EditStream::new(start.clone(), labels.clone(), 4);
        let mut replay = start;
        for _ in 0..100 {
            for edit in stream.next_pair() {
                let before = replay.len();
                let (_, removed, inserted) = replay.apply(&edit, &labels);
                assert_eq!(replay.len(), before + inserted - removed);
            }
            assert_eq!(replay.len(), n, "a pair preserves the node count");
        }
        assert_eq!(&replay, stream.doc());
        // The mirror rebuilds into a tree with the same preorder.
        assert_eq!(Mirror::from_tree(&replay.to_tree()), replay);
    }
}
