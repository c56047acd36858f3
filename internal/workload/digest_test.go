package workload

import "testing"

// pinnedDigests are the BPTRACE1 digests (trace.Recording.Digest) of every
// profile's stream at four lengths: one instruction, exactly one recording
// chunk (65536), one past the chunk boundary, and 500000, the accuracy
// grid's length. The persistent result store keys cells on these digests,
// so a change to the generator, the random draws, the recorder or the
// encoder that alters one bit of any stream or of its encoding fails here
// rather than silently orphaning every stored cell.
var pinnedDigests = []struct {
	insts   int64
	digests [12]string
}{
	{1, [12]string{
		"abc0a537b7877745a2398323b8273e4cef8f487f080e833eed6073d249d739c7", // 164.gzip
		"90bdcc7f3d543b0019e74da5fe1e6ceecfc72e0834c7bd756815f8b624528807", // 175.vpr
		"f70711241488d89fa5ef00786a7b88de7d955362d135aed6c370d9d76e488b8c", // 176.gcc
		"7e23a6d71831ba822c41e2e462a074e4874baad2fa93025b2ac4c70fea607781", // 181.mcf
		"154de626420dc7ee4c1a1f3b406d797d39916930109f3d3021d487853614471b", // 186.crafty
		"b747836d058b7c27cbd309817672bf14ba74bba1daa2f8cd3bd8113937fef1b7", // 197.parser
		"2c5b4ce61d531302505adfd4a3fda4f13114c4c5af8a5c0c7a6461478c384822", // 252.eon
		"728c7826d863e0ea9a4fab0451bf7ed2869c4b2271796d80993655b6e8c3bd07", // 253.perlbmk
		"1747f2627846ab80bbdb904c9262c1178c9704b68ab6025cac49d4e11dfe0366", // 254.gap
		"b2ed3a1a49a448ed227b978633203a2b052854c9b25d64ca198f4d262df7e122", // 255.vortex
		"cd853674ca8783e998c56f68cbb599d98f68a7968d44688022645c7b1fbb4bfd", // 256.bzip2
		"562b18ecceec9df70939224d2ec97809ebf9d8d8cf2bba03568835cf02405cc6", // 300.twolf
	}},
	{65536, [12]string{
		"295466344f6c810421c63dd5fe080b704431a58cbe742dca416a8cda06f01bb3", // 164.gzip
		"9d18962ab00e147cedf4d62747c753ce167c15b27d5d2cec76b2e2ba1d391ce2", // 175.vpr
		"f0a4932583b7a9db2e9a4bfcdbb6a88466fb61178410d14aa12932fe8d62b99f", // 176.gcc
		"b2dc7c0bf12acc0f3dab489ad2f4918a86ccddc0cfef82cad96e0179898c43bf", // 181.mcf
		"84c04f4dc32586f846d046d7b950dffea29de433afa2c669db03d813a3d1a851", // 186.crafty
		"254008ed8c8421f1b2bb62aee654e196e35354753430552120c7dc21a6552628", // 197.parser
		"a54f10dcfd476786f8977d1e54ea626587b28111926aab2582795dfd96442acd", // 252.eon
		"d0e61fb33ab7d98584ec140d7324e0e39793564bb58ffe895be2d8b959ded806", // 253.perlbmk
		"a41e2733cd831c50dc800e710fd262d8ae9308ee3b7bc6caf6cad2cfefe1eb81", // 254.gap
		"707e8f9da40c97d4e98d608dd344c24bfa16e40ead7410aabe4264322e9c2bb9", // 255.vortex
		"cfcecd48304149060d89d0cb7b2035e81ff0bb5300bd2ec3f0cf80826c0d5310", // 256.bzip2
		"8fdf60d4decb223d14b671c5f25ff0557574b6ae5f97660e5dd58e4b78fcf4e2", // 300.twolf
	}},
	{65537, [12]string{
		"8121607409dce7ef2f3a5a51c5e0a973f6bd784ed99a5229b61a8510a28528bb", // 164.gzip
		"33b456ee0f1f61e9fa10c5bca0e8b09483eafaf35adc0cf7a5019f1afd3586df", // 175.vpr
		"38aa1b3ce4a7c58e387ffaee749b535fc86812f2ed14829e661363eb29372333", // 176.gcc
		"64173161d6eb20ff2e19e4be10c63f8420fceed112fcf3ca197a319f7d7b48aa", // 181.mcf
		"a72a2aa8016b14cf482e28dec28d6f229b6d8ba356b3dc3a58c7dcecd4d7d5bd", // 186.crafty
		"cdcab1df21a0d97450860a49549edb50168dcbcd8f69572c8f36ba9836cb3344", // 197.parser
		"375de4ab128d8f8923a81b099729392a65b6e65015ef9a628623671903dfed6d", // 252.eon
		"70ef0af4d518e0bc803750c3ca8083b09d252826838c21769e6abfcc5fd9db69", // 253.perlbmk
		"4cd536729c7fb9fa156e42d9d7041eb322d5459ff894362407b289ac959ef1cb", // 254.gap
		"a85dd4508814f376b043f58c4dbcf637a3109c1067ca17f912028c5d23ea1f9f", // 255.vortex
		"53415b952e48c39cfba4c8b6376ed4256cbba196bd3384756e6568426676a9b3", // 256.bzip2
		"82a2b99c26bfc2ad8a44edacc5cffb82ac7493be4ebaae89be8b8c0a6cf1cc83", // 300.twolf
	}},
	{500000, [12]string{
		"2f34b702ea36cacddf5283ceb851bb6cb8257a988f6d5ca94a9f0d7583a7c13d", // 164.gzip
		"7f0ceebd040042241c219af9b08b3a917c62deaba7af5568742149ea5fb1ed8b", // 175.vpr
		"722c65d372c85cf5ed6eb18a2336e778c8a3d5262d3bc2750cb002dd96033341", // 176.gcc
		"155bce0c15128d2ef908cb0aa476530de91be3ade4c53e1307c90d2fa5e84dc4", // 181.mcf
		"843d13fbbb609e68b9fa60b64d9ce0bef2841321d19301aad22ac7c9cd05f816", // 186.crafty
		"18cf478a7c708924f8c6d5fc712ed0241a70f4faa54171937087072e3c77fc2c", // 197.parser
		"37c30643080ceee97e229a275de6a8b15eb12238206db7a60c9942f245eb5b42", // 252.eon
		"ea37bfe379046dc68d717002511c92ebc37d52eebd7936fc0598168fd7a1dbce", // 253.perlbmk
		"da71e52e3698dabd0577775e4f1be3295854b032e42e8e0c999fc1617e256981", // 254.gap
		"08212e9da58d197abcf5e886d2137d8b0f172b5d2182b3b3262db7fa9294fe20", // 255.vortex
		"a2236dd9de6c33dc4a9759fc12171d406a6f01d60c0beee3a063967ec7415a18", // 256.bzip2
		"d9e58a0db9c13b822cdbcfa6a4e0a854b44d0800b1d70fcb7b821fc06d88acbc", // 300.twolf
	}},
}

// TestProfileDigestsPinned records every profile at every pinned length and
// compares the digest with the literal above.
func TestProfileDigestsPinned(t *testing.T) {
	profs := Profiles()
	for _, c := range pinnedDigests {
		for i, prof := range profs {
			if got := Record(prof, c.insts).Digest(); got != c.digests[i] {
				t.Errorf("%s at %d instructions: digest %s, want %s", prof.Name, c.insts, got, c.digests[i])
			}
		}
	}
}
