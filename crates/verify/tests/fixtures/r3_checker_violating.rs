//! R3 fixture (violating) — a failpoint checker that writes first: the
//! image reaches its file before the fn's only failpoint evaluation, so
//! the crash matrix cannot crash ahead of the write. Evaluating a
//! failpoint somewhere in a body does not cover what comes before it.

impl ImageFile {
    pub fn replace(&self, image: &[u8]) -> Result<()> {
        let mut file = File::create(&self.beside)?;
        file.write_all(image)?;
        asset_faults::failpoint!(&self.faults, STORE_WRITE, |act| {
            return Err(self.faults.realize_plain(STORE_WRITE, act).into());
        });
        std::fs::rename(&self.beside, &self.path)?;
        Ok(())
    }
}
