//! Persistence of the query structures.
//!
//! DMTM + MSDN construction is fast but not free; a production deployment
//! builds them once per terrain and reuses them across sessions (the paper
//! likewise pre-creates both and stores them in the database). The bundle
//! format concatenates the two structures' own binary formats under a
//! small header.

use crate::config::Mr3Config;
use sknn_multires::{build_dmtm, DmtmTree};
use sknn_sdn::{Msdn, MsdnConfig};
use sknn_terrain::mesh::TerrainMesh;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"SKNN";
const VERSION: u32 = 1;

/// The prebuilt multiresolution structures of one terrain.
pub struct Structures {
    /// The DMTM collapse tree.
    pub tree: DmtmTree,
    /// The MSDN resolution stack.
    pub msdn: Msdn,
}

impl Structures {
    /// Build both structures for a mesh under `cfg`'s parameters.
    pub fn build(mesh: &TerrainMesh, cfg: &Mr3Config) -> Self {
        let tree = build_dmtm(mesh);
        let msdn = Msdn::build(
            mesh,
            &MsdnConfig { levels: cfg.msdn_levels.clone(), plane_spacing: cfg.plane_spacing },
        );
        Self { tree, msdn }
    }

    /// Serialise the bundle.
    pub fn write(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        sknn_multires::io::write_tree(&self.tree, w)?;
        sknn_sdn::io::write_msdn(&self.msdn, w)?;
        Ok(())
    }

    /// Deserialise a bundle written by [`Structures::write`].
    pub fn read(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not a SKNN bundle"));
        }
        let mut ver = [0u8; 4];
        r.read_exact(&mut ver)?;
        if u32::from_le_bytes(ver) != VERSION {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "unsupported bundle version"));
        }
        let tree = sknn_multires::io::read_tree(r)?;
        let msdn = sknn_sdn::io::read_msdn(r)?;
        Ok(Self { tree, msdn })
    }

    /// Convenience: save to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        self.write(&mut f)?;
        f.flush()
    }

    /// Convenience: load from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut f = io::BufReader::new(std::fs::File::open(path)?);
        Self::read(&mut f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr3::Mr3Engine;
    use crate::workload::SceneBuilder;
    use sknn_terrain::dem::TerrainConfig;

    #[test]
    fn bundle_roundtrip_gives_identical_engine_behaviour() {
        let mesh = TerrainConfig::bh().with_grid(17).build_mesh(42);
        let scene = SceneBuilder::new(&mesh).object_count(15).seed(1).build();
        let cfg = Mr3Config::default();
        let structures = Structures::build(&mesh, &cfg);

        let mut buf = Vec::new();
        structures.write(&mut buf).unwrap();
        let loaded = Structures::read(&mut buf.as_slice()).unwrap();

        let fresh = Mr3Engine::build(&mesh, &scene, &cfg);
        let restored = Mr3Engine::build_from(&mesh, &scene, &cfg, loaded);
        let q = scene.random_query(7);
        let a = fresh.try_query(q, 4).unwrap();
        let b = restored.try_query(q, 4).unwrap();
        let ids = |r: &crate::metrics::QueryResult| {
            r.neighbors.iter().map(|n| (n.id, n.range)).collect::<Vec<_>>()
        };
        assert_eq!(ids(&a), ids(&b));
        assert_eq!(a.stats.pages, b.stats.pages);
    }

    #[test]
    fn save_load_via_files() {
        let mesh = TerrainConfig::ep().with_grid(9).build_mesh(3);
        let cfg = Mr3Config::default();
        let structures = Structures::build(&mesh, &cfg);
        let path = std::env::temp_dir().join("sknn_persist_test.sknn");
        structures.save(&path).unwrap();
        let loaded = Structures::load(&path).unwrap();
        assert_eq!(loaded.tree.num_leaves(), structures.tree.num_leaves());
        assert_eq!(loaded.msdn.levels, structures.msdn.levels);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_magic() {
        assert!(Structures::read(&mut &b"JUNKJUNK"[..]).is_err());
    }
}
