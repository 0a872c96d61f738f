//! R3 fixture (conforming) — the same checker with its failpoint ahead of
//! the write it guards.

impl ImageFile {
    pub fn replace(&self, image: &[u8]) -> Result<()> {
        let mut file = File::create(&self.beside)?;
        asset_faults::failpoint!(&self.faults, STORE_WRITE, |act| {
            return Err(self.faults.realize_plain(STORE_WRITE, act).into());
        });
        file.write_all(image)?;
        std::fs::rename(&self.beside, &self.path)?;
        Ok(())
    }
}
